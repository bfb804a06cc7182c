package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/stream"
)

func gaussianInputs(n int, seed int64) []dist.Dist {
	g := rng.New(seed)
	out := make([]dist.Dist, n)
	for i := range out {
		out[i] = dist.NewNormal(g.Uniform(-5, 5), g.Uniform(0.5, 2))
	}
	return out
}

// mixtureInputs reproduces the Table 2 workload: per-tuple pdfs that are
// random 2-3 component Gaussian mixtures "to simulate arbitrary real-world
// distributions".
func mixtureInputs(n int, seed int64) []dist.Dist {
	g := rng.New(seed)
	out := make([]dist.Dist, n)
	for i := range out {
		k := 2 + g.Intn(2)
		ws := make([]float64, k)
		mus := make([]float64, k)
		sds := make([]float64, k)
		for j := 0; j < k; j++ {
			ws[j] = 0.2 + g.Float64()
			mus[j] = g.Uniform(-8, 8)
			sds[j] = 0.3 + 1.5*g.Float64()
		}
		out[i] = dist.NewGaussianMixture(ws, mus, sds)
	}
	return out
}

func TestSumStrategiesAgreeOnGaussians(t *testing.T) {
	ds := gaussianInputs(20, 1)
	var wantMu, wantVar float64
	for _, d := range ds {
		wantMu += d.Mean()
		wantVar += d.Variance()
	}
	exact := dist.NewNormal(wantMu, math.Sqrt(wantVar))
	tolerances := map[Strategy]float64{
		CFInvert:          0.005,
		CFApprox:          1e-9,
		CLT:               1e-9,
		HistogramSampling: 0.12,
		MonteCarlo:        0.12,
		PairwiseIntegrals: 0.05,
	}
	for strat, tol := range tolerances {
		got := Sum(ds, strat, AggOptions{Seed: 2})
		if d := dist.VarianceDistance(got, exact, 4096); d > tol {
			t.Errorf("%v: variance distance %g > %g", strat, d, tol)
		}
	}
}

func TestSumStrategyAccuracyOrderingOnMixtures(t *testing.T) {
	// The Table 2 ordering: exact inversion ≈ 0, CF approx small,
	// histogram sampling visibly worse.
	ds := mixtureInputs(100, 3)
	exact := Sum(ds, CFInvert, AggOptions{GridN: 4096})
	dApprox := dist.VarianceDistance(Sum(ds, CFApprox, AggOptions{}), exact, 4096)
	dHist := dist.VarianceDistance(Sum(ds, HistogramSampling, AggOptions{Seed: 4}), exact, 4096)
	if dApprox >= dHist {
		t.Errorf("CF approx (%g) should beat histogram sampling (%g)", dApprox, dHist)
	}
	if dApprox > 0.05 {
		t.Errorf("CF approx distance %g too large for a 100-tuple window (CLT regime)", dApprox)
	}
	if dHist < 0.01 {
		t.Errorf("histogram sampling distance %g suspiciously small", dHist)
	}
}

func TestSumEmptyWindow(t *testing.T) {
	got := Sum(nil, CFInvert, AggOptions{})
	if got.Mean() != 0 || got.Variance() != 0 {
		t.Error("empty sum should be point mass at 0")
	}
}

func TestSumTuplesLineageAndExistence(t *testing.T) {
	u1 := NewUTuple(1, []string{"v"}, []dist.Dist{dist.NewNormal(1, 0.1)})
	u2 := NewUTuple(2, []string{"v"}, []dist.Dist{dist.NewNormal(2, 0.1)})
	u2.Exist = 0.5
	out := SumTuples([]*UTuple{u1, u2}, "v", CFApprox, AggOptions{})
	if !out.Lin.Contains(u1.ID) || !out.Lin.Contains(u2.ID) {
		t.Error("aggregate lineage must cover inputs")
	}
	// E[sum] = 1 + 0.5·2 = 2.
	if math.Abs(out.Attr("v").Mean()-2) > 1e-6 {
		t.Errorf("gated mean = %g, want 2", out.Attr("v").Mean())
	}
	if out.TS != 2 {
		t.Errorf("aggregate TS = %d", out.TS)
	}
}

func TestBernoulliGateMoments(t *testing.T) {
	d := dist.NewNormal(10, 1)
	gated := BernoulliGate(d, 0.3)
	if math.Abs(gated.Mean()-3) > 1e-9 {
		t.Errorf("gated mean = %g, want 3", gated.Mean())
	}
	// Var = p·(σ²+μ²) − (p·μ)² = 0.3·101 − 9 = 21.3.
	if math.Abs(gated.Variance()-21.3) > 1e-9 {
		t.Errorf("gated var = %g, want 21.3", gated.Variance())
	}
	if BernoulliGate(d, 1) != d {
		t.Error("p=1 should return the input")
	}
	if pm, ok := BernoulliGate(d, 0).(dist.PointMass); !ok || pm.V != 0 {
		t.Error("p=0 should be point mass at 0")
	}
}

func TestCountPoissonBinomial(t *testing.T) {
	mk := func(p float64) *UTuple {
		u := NewUTuple(0, []string{"v"}, []dist.Dist{dist.PointMass{V: 1}})
		u.Exist = p
		return u
	}
	c := Count([]*UTuple{mk(0.5), mk(0.5)})
	// P(count=1) = 0.5; mean = 1.
	if math.Abs(c.Mean()-1) > 1e-9 {
		t.Errorf("count mean = %g", c.Mean())
	}
	// P(count=0) = 0.25: read the CDF at the integer bin's upper edge
	// (the histogram interpolates linearly inside bins).
	if math.Abs(c.CDF(0.5)-0.25) > 1e-9 {
		t.Errorf("P(count=0) = %g", c.CDF(0.5))
	}
	// All-certain tuples: degenerate at n.
	c2 := Count([]*UTuple{mk(1), mk(1), mk(1)})
	if math.Abs(c2.Mean()-3) > 1e-9 || c2.Variance() > 0.1 {
		t.Errorf("certain count = %g ± %g", c2.Mean(), c2.Variance())
	}
}

func TestSumCorrelatedMAWiderThanIID(t *testing.T) {
	g := rng.New(6)
	// Positively correlated MA(1) series.
	var series []float64
	prev := 0.0
	for i := 0; i < 5000; i++ {
		e := g.Normal(0, 1)
		series = append(series, 3+e+0.8*prev)
		prev = e
	}
	corr := MeanCorrelatedMA(series, 1)
	iid := MeanCorrelatedMA(series, 0)
	if corr.Sigma <= iid.Sigma {
		t.Errorf("MA-aware σ %g must exceed iid σ %g", corr.Sigma, iid.Sigma)
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []Strategy{CFInvert, CFApprox, HistogramSampling, MonteCarlo, PairwiseIntegrals, CLT, CFApproxGMM} {
		if s.String() == "" {
			t.Error("empty strategy name")
		}
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Error("unknown strategy name")
	}
}

func TestUTupleBasics(t *testing.T) {
	u := NewUTuple(5, []string{"a"}, []dist.Dist{dist.NewNormal(1, 1)})
	if u.Exist != 1 || !u.Lin.Contains(u.ID) {
		t.Error("fresh tuple invariants")
	}
	if !u.HasAttr("a") || u.HasAttr("b") {
		t.Error("HasAttr")
	}
	u.SetAttr("b", dist.PointMass{V: 2})
	if u.Mean("b") != 2 {
		t.Error("SetAttr new attr")
	}
	c := u.Clone()
	c.SetAttr("a", dist.PointMass{V: 9})
	if u.Mean("a") == 9 {
		t.Error("clone aliases parent")
	}
	d := Derive(stream.Time(7), []string{"s"}, []dist.Dist{dist.PointMass{V: 0}}, u, c)
	if d.Exist != 1 || d.Lin.Len() == 0 {
		t.Error("derive bookkeeping")
	}
	if u.String() == "" {
		t.Error("String")
	}
}
