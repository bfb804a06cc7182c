package cf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

// randomMixture builds a bounded random Gaussian mixture from quick's raw
// float inputs.
func randomMixture(seed int64) *dist.Mixture {
	g := rng.New(seed)
	k := 1 + g.Intn(3)
	ws := make([]float64, k)
	mus := make([]float64, k)
	sds := make([]float64, k)
	for j := 0; j < k; j++ {
		ws[j] = 0.1 + g.Float64()
		mus[j] = g.Uniform(-20, 20)
		sds[j] = 0.2 + 3*g.Float64()
	}
	return dist.NewGaussianMixture(ws, mus, sds)
}

func TestProductCFModulusBound(t *testing.T) {
	// |φ_sum(t)| <= 1 for any inputs and any t — products of CFs stay CFs.
	f := func(seed int64, tv float64) bool {
		if math.IsNaN(tv) || math.IsInf(tv, 0) {
			return true
		}
		tv = math.Mod(tv, 100)
		ds := []dist.Dist{randomMixture(seed), randomMixture(seed + 1), randomMixture(seed + 2)}
		return cmplx.Abs(SumOf(ds)(tv)) <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInversionRoundTripRandomMixtures(t *testing.T) {
	// Inverting the product CF of random mixtures must land within a small
	// variance distance of the truth, and the recovered moments must match
	// the additive cumulants.
	for seed := int64(0); seed < 12; seed++ {
		ds := []dist.Dist{randomMixture(seed), randomMixture(seed + 100)}
		h := Invert(SumOf(ds), InvertOptions{N: 4096})
		wantMean, wantVar := SumMoments(ds)
		if math.Abs(h.Mean()-wantMean) > 0.05*(1+math.Abs(wantMean)) {
			t.Errorf("seed %d: mean %g want %g", seed, h.Mean(), wantMean)
		}
		if math.Abs(h.Variance()-wantVar) > 0.05*wantVar {
			t.Errorf("seed %d: var %g want %g", seed, h.Variance(), wantVar)
		}
		// Density must be a density.
		var mass float64
		for _, p := range h.Masses() {
			if p < 0 {
				t.Fatalf("seed %d: negative mass", seed)
			}
			mass += p
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("seed %d: total mass %g", seed, mass)
		}
	}
}

func TestGilPelaezMatchesFFTInversion(t *testing.T) {
	// Two independent routes to the same density must agree.
	ds := []dist.Dist{randomMixture(7), randomMixture(8), randomMixture(9)}
	phi := SumOf(ds)
	h := Invert(phi, InvertOptions{N: 4096})
	mean, variance := SumMoments(ds)
	sd := math.Sqrt(variance)
	for _, x := range []float64{mean - sd, mean, mean + 2*sd} {
		direct := GilPelaezPDF(phi, x, sd)
		grid := h.PDF(x)
		if math.Abs(direct-grid) > 0.02*(direct+1e-3)+1e-4 {
			t.Errorf("pdf mismatch at %g: GilPelaez %g vs FFT %g", x, direct, grid)
		}
	}
}

func TestCLTErrorShrinksWithWindow(t *testing.T) {
	// §5.1: the CLT approximation improves with the number of effective
	// summands — the error must decrease monotonically over decades.
	base := randomMixture(42)
	err := func(n int) float64 {
		ds := make([]dist.Dist, n)
		for i := range ds {
			ds[i] = base
		}
		exact := Invert(SumOf(ds), InvertOptions{N: 4096})
		return dist.VarianceDistance(exact, ApproxGaussianSum(ds), 4096)
	}
	e5, e20, e100 := err(5), err(20), err(100)
	if !(e5 > e20 && e20 > e100) {
		t.Errorf("CLT error not shrinking: %g, %g, %g", e5, e20, e100)
	}
	if e100 > 0.02 {
		t.Errorf("CLT error at n=100 = %g, want < 0.02", e100)
	}
}
