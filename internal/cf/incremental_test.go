package cf

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// bernoulliGateRef mirrors core.BernoulliGate (a point mass at 0 mixed with
// the value distribution) without importing core (which imports cf).
func bernoulliGateRef(d dist.Dist, p float64) dist.Dist {
	if p >= 1 {
		return d
	}
	if p <= 0 {
		return dist.PointMass{V: 0}
	}
	return dist.NewMixture([]float64{1 - p, p}, []dist.Dist{dist.PointMass{V: 0}, d})
}

// TestGatedCumulantsBitIdentical pins the contract the incremental path
// rests on: the closed-form gated cumulants equal — bit for bit, not
// approximately — the moments read off the constructed gate mixture. If
// this drifts, incremental and recompute aggregation stop producing
// byte-identical alerts.
func TestGatedCumulantsBitIdentical(t *testing.T) {
	g := rng.New(7)
	check := func(d dist.Dist, p float64) {
		t.Helper()
		ref := bernoulliGateRef(d, p)
		wantM, wantV := ref.Mean(), ref.Variance()
		got := GatedCumulants(d.Mean(), d.Variance(), p)
		if got.K1 != wantM || got.K2 != wantV {
			t.Errorf("GatedCumulants(%v, p=%g) = (%.17g, %.17g), mixture gives (%.17g, %.17g)",
				d, p, got.K1, got.K2, wantM, wantV)
		}
	}
	ps := []float64{0, 1e-300, 1e-17, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 1 - 1e-16, 1, 1.5, -0.2}
	for _, p := range ps {
		check(dist.NewNormal(150, 30), p)
		check(dist.PointMass{V: 42.5}, p)
		check(dist.NewNormal(-3.7, 0.01), p)
	}
	for i := 0; i < 500; i++ {
		d := dist.NewNormal(g.Normal(0, 100), math.Abs(g.Normal(0, 10))+1e-6)
		check(d, g.Float64())
	}
	// Mixture-valued inputs (posteriors of moved objects) gate through the
	// same closed form: the gated moments only consume Mean/Variance.
	mix := dist.NewGaussianMixture([]float64{0.4, 0.6}, []float64{0, 10}, []float64{1, 2})
	for _, p := range ps {
		check(mix, p)
	}
}

func TestGaussianFromCumulantsMatchesApproxSum(t *testing.T) {
	ds := []dist.Dist{
		dist.NewNormal(5, 2), dist.NewNormal(-1, 0.5), dist.PointMass{V: 3},
	}
	mean, variance := SumMoments(ds)
	got := GaussianFromCumulants(Cumulants{K1: mean, K2: variance})
	want := ApproxGaussianSum(ds)
	if got != want {
		t.Errorf("GaussianFromCumulants = %v, ApproxGaussianSum = %v", got, want)
	}
	// Degenerate: all point masses must not produce a NaN sigma.
	pm := GaussianFromCumulants(Cumulants{K1: 7})
	if math.IsNaN(pm.Std()) || pm.Std() <= 0 {
		t.Errorf("degenerate sigma = %g", pm.Std())
	}
}
