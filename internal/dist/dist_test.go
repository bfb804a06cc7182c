package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNormalMomentsAndConvolution(t *testing.T) {
	n := NewNormal(3, 2)
	if n.Mean() != 3 || n.Variance() != 4 || n.Std() != 2 {
		t.Errorf("moments: %g %g %g", n.Mean(), n.Variance(), n.Std())
	}
	c := ConvolveNormals(NewNormal(1, 1), NewNormal(2, 2), NewNormal(-3, 0.5))
	if math.Abs(c.Mu-0) > 1e-12 || math.Abs(c.Variance()-5.25) > 1e-12 {
		t.Errorf("convolution = %v", c)
	}
	s := n.ScaleShift(-2, 1)
	if s.Mu != -5 || s.Sigma != 4 {
		t.Errorf("scale-shift = %v", s)
	}
}

func TestMixtureMomentIdentities(t *testing.T) {
	// Mean = Σ wᵢμᵢ and Var = Σ wᵢ(σᵢ²+μᵢ²) − μ², checked against the
	// hand-computed values for an asymmetric bimodal mixture.
	m := NewGaussianMixture([]float64{0.3, 0.7}, []float64{-2, 4}, []float64{1, 0.5})
	wantMean := 0.3*(-2) + 0.7*4
	wantVar := 0.3*(1+4) + 0.7*(0.25+16) - wantMean*wantMean
	if math.Abs(m.Mean()-wantMean) > 1e-12 {
		t.Errorf("mixture mean %g want %g", m.Mean(), wantMean)
	}
	if math.Abs(m.Variance()-wantVar) > 1e-12 {
		t.Errorf("mixture var %g want %g", m.Variance(), wantVar)
	}
	// And against a large Monte Carlo sample.
	g := rng.New(1)
	xs := SampleN(m, 200000, g)
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	mcMean := s / float64(len(xs))
	mcVar := s2/float64(len(xs)) - mcMean*mcMean
	if math.Abs(mcMean-wantMean) > 0.02 || math.Abs(mcVar-wantVar)/wantVar > 0.02 {
		t.Errorf("MC moments (%g, %g) vs exact (%g, %g)", mcMean, mcVar, wantMean, wantVar)
	}
	// Weights normalize.
	m2 := NewMixture([]float64{2, 6}, []Dist{PointMass{V: 0}, PointMass{V: 1}})
	if math.Abs(m2.Weights[0]-0.25) > 1e-12 || math.Abs(m2.Mean()-0.75) > 1e-12 {
		t.Errorf("weight normalization: %v mean %g", m2.Weights, m2.Mean())
	}
}

func TestCDFQuantileRoundTrips(t *testing.T) {
	dists := map[string]Dist{
		"normal":      NewNormal(-1, 2.5),
		"uniform":     NewUniform(2, 7),
		"exponential": NewExponential(0.4),
		"histogram":   Discretize(NewNormal(0, 1), 128),
		"mixture":     NewGaussianMixture([]float64{0.4, 0.6}, []float64{-3, 2}, []float64{0.5, 1.5}),
		"truncated":   NewTruncated(NewNormal(0, 1), -0.5, 2),
	}
	for name, d := range dists {
		for _, p := range []float64{0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
			q := d.Quantile(p)
			got := d.CDF(q)
			if math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%g)) = %g", name, p, got)
			}
		}
	}
	// Empirical inverts up to its step resolution.
	g := rng.New(2)
	e := NewEmpirical(SampleN(NewNormal(0, 1), 4000, g), nil)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if got := e.CDF(e.Quantile(p)); math.Abs(got-p) > 0.01 {
			t.Errorf("empirical: CDF(Quantile(%g)) = %g", p, got)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	m := NewGaussianMixture([]float64{0.5, 0.5}, []float64{-4, 4}, []float64{1, 1})
	prev := math.Inf(-1)
	for p := 0.01; p < 1; p += 0.01 {
		q := m.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%g: %g < %g", p, q, prev)
		}
		prev = q
	}
}

func TestDiscretizeMassConservation(t *testing.T) {
	for name, d := range map[string]Dist{
		"normal":  NewNormal(5, 3),
		"mixture": NewGaussianMixture([]float64{0.2, 0.8}, []float64{0, 10}, []float64{1, 2}),
		"uniform": NewUniform(0, 1),
	} {
		h := Discretize(d, 64)
		var mass float64
		for _, p := range h.Masses() {
			if p < 0 {
				t.Fatalf("%s: negative bin mass", name)
			}
			mass += p
		}
		if math.Abs(mass-1) > 1e-12 {
			t.Errorf("%s: total mass %g", name, mass)
		}
		// Moments survive discretization.
		if math.Abs(h.Mean()-d.Mean()) > 0.01*(1+math.Abs(d.Mean())) {
			t.Errorf("%s: mean %g vs %g", name, h.Mean(), d.Mean())
		}
		if math.Abs(h.Variance()-d.Variance()) > 0.03*d.Variance() {
			t.Errorf("%s: var %g vs %g", name, h.Variance(), d.Variance())
		}
	}
}

func TestDiscretizeKeepsBoundaryAtom(t *testing.T) {
	// The Bernoulli-gate shape: δ(0) mixed with a positive-valued
	// distribution puts the atom exactly at the support's lower bound; its
	// mass must land in bin 0, not be renormalized away.
	gated := NewMixture([]float64{0.3, 0.7}, []Dist{PointMass{V: 0}, NewNormal(8, 0.5)})
	h := Discretize(gated, 32)
	want := 0.7 * 8.0
	// The atom smears over bin 0, shifting the mean by up to 0.3·w/2 ≈ 0.07.
	if math.Abs(h.Mean()-want) > 0.1 {
		t.Errorf("discretized gated mean = %g, want ~%g", h.Mean(), want)
	}
	if p0 := h.Masses()[0]; p0 < 0.29 {
		t.Errorf("bin 0 mass = %g, want ~0.3 (the gate atom)", p0)
	}
}

func TestHistogramCDFLinearInterpolation(t *testing.T) {
	h := NewHistogram(-0.5, 2.5, []float64{0.25, 0.5, 0.25})
	// Exactly the bin edges and a midpoint.
	if got := h.CDF(0.5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("CDF(0.5) = %g", got)
	}
	if got := h.CDF(1.0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(1.0) = %g", got)
	}
	if h.CDF(-1) != 0 || h.CDF(3) != 1 {
		t.Error("CDF tails")
	}
	if math.Abs(h.Mean()-1) > 1e-12 {
		t.Errorf("mean = %g", h.Mean())
	}
}

func TestTruncationRenormalization(t *testing.T) {
	base := NewNormal(10, 3)
	tr := NewTruncated(base, 10.7, 20)
	// The truncated density integrates to 1 over its support.
	var mass float64
	n := 20000
	w := (20.0 - 10.7) / float64(n)
	for i := 0; i < n; i++ {
		mass += tr.PDF(10.7+(float64(i)+0.5)*w) * w
	}
	if math.Abs(mass-1) > 1e-4 {
		t.Errorf("truncated mass = %g", mass)
	}
	if tr.CDF(10.7) != 0 || tr.CDF(20) != 1 {
		t.Error("CDF endpoints")
	}
	// Closed-form truncated-normal mean: μ + σ·(φ(α)−φ(β))/(Φ(β)−Φ(α)).
	alpha, beta := (10.7-10.0)/3, (20.0-10.0)/3
	phi := func(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
	Phi := func(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
	wantMean := 10 + 3*(phi(alpha)-phi(beta))/(Phi(beta)-Phi(alpha))
	if math.Abs(tr.Mean()-wantMean) > 1e-6 {
		t.Errorf("truncated mean %g want %g", tr.Mean(), wantMean)
	}
	// Law of total probability: the Exist-weighted mixture of the two
	// conditionals reconstructs the parent.
	lo := NewTruncated(base, base.Quantile(1e-12), 10.7)
	pLo := base.CDF(10.7)
	recon := NewMixture([]float64{pLo, 1 - pLo}, []Dist{lo, tr})
	if d := VarianceDistance(recon, base, 4096); d > 1e-3 {
		t.Errorf("reconstruction distance = %g", d)
	}
	// Degenerate interval collapses to a point.
	if _, ok := NewTruncated(base, 100, 101).(PointMass); !ok {
		t.Error("zero-mass truncation should degenerate to a point mass")
	}
}

func TestTruncatedMixtureKeepsAtomMass(t *testing.T) {
	// Truncating a Bernoulli-gated mixture must keep the atom's mass: the
	// conditional of ½δ(2) + ½N(5,1) on (−7, 3] is dominated by the atom.
	m := NewMixture([]float64{0.5, 0.5}, []Dist{PointMass{V: 2}, NewNormal(5, 1)})
	tr := NewTruncated(m, -7, 3)
	// Exact conditional mean: (0.5·2 + 0.5·E[N·1{N<=3}]) / (0.5 + 0.5·Φ(-2)).
	n := NewNormal(5, 1)
	tailMass := n.CDF(3) - n.CDF(-7)
	condTail := NewTruncated(n, -7, 3)
	wantMean := (0.5*2 + 0.5*tailMass*condTail.Mean()) / (0.5 + 0.5*tailMass)
	if math.Abs(tr.Mean()-wantMean) > 1e-6 {
		t.Errorf("truncated gated mean = %g, want %g", tr.Mean(), wantMean)
	}
	// CDF consistency with the parent: F_tr(x) = (F(x)−F(lo))/mass.
	mass := m.CDF(3) - m.CDF(-7)
	for _, x := range []float64{0, 1.9, 2, 2.5, 3} {
		want := (m.CDF(x) - m.CDF(-7)) / mass
		if math.Abs(tr.CDF(x)-want) > 1e-9 {
			t.Errorf("CDF(%g) = %g, want %g", x, tr.CDF(x), want)
		}
	}
	// An atom alone survives as itself.
	if pm, ok := NewTruncated(PointMass{V: 1}, 0, 2).(PointMass); !ok || pm.V != 1 {
		t.Error("in-window atom should pass through truncation")
	}
}

func TestTruncatedEmpiricalMomentsExact(t *testing.T) {
	// An empirical base has a step CDF but a kernel PDF; truncation must use
	// the exact discrete conditional moments, which stay inside the interval.
	tr := NewTruncated(NewEmpirical([]float64{0, 1}, nil), 0.5, 1)
	if m := tr.Mean(); math.Abs(m-1) > 1e-12 {
		t.Errorf("conditional mean %g, want 1 (the only sample in (0.5, 1])", m)
	}
	if v := tr.Variance(); v != 0 {
		t.Errorf("conditional variance %g, want 0", v)
	}
	tr2 := NewTruncated(NewEmpirical([]float64{1, 2, 3, 4}, []float64{1, 1, 1, 3}), 1.5, 4)
	want := (2.0 + 3 + 3*4) / 5
	if m := tr2.Mean(); math.Abs(m-want) > 1e-12 {
		t.Errorf("weighted conditional mean %g, want %g", m, want)
	}
}

func TestEmpiricalWeightedMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ws := []float64{1, 1, 1, 5}
	e := NewEmpirical(xs, ws)
	wantMean := (1.0 + 2 + 3 + 5*4) / 8
	var wantVar float64
	for i, x := range xs {
		d := x - wantMean
		wantVar += ws[i] / 8 * d * d
	}
	if math.Abs(e.Mean()-wantMean) > 1e-12 {
		t.Errorf("mean %g want %g", e.Mean(), wantMean)
	}
	if math.Abs(e.Variance()-wantVar) > 1e-9 {
		t.Errorf("var %g want %g", e.Variance(), wantVar)
	}
	// CDF steps at the samples with the right cumulative weights.
	if math.Abs(e.CDF(2.5)-0.25) > 1e-12 || math.Abs(e.CDF(4)-1) > 1e-12 {
		t.Errorf("CDF = %g, %g", e.CDF(2.5), e.CDF(4))
	}
	if q := e.Quantile(0.9); q != 4 {
		t.Errorf("quantile(0.9) = %g", q)
	}
}

func TestFitNormalMatchesMoments(t *testing.T) {
	g := rng.New(3)
	target := NewGaussianMixture([]float64{0.5, 0.5}, []float64{-1, 3}, []float64{1, 2})
	e := NewEmpirical(SampleN(target, 50000, g), nil)
	fit := FitNormal(e)
	if math.Abs(fit.Mu-target.Mean()) > 0.05 {
		t.Errorf("fit mean %g want %g", fit.Mu, target.Mean())
	}
	if math.Abs(fit.Variance()-target.Variance())/target.Variance() > 0.05 {
		t.Errorf("fit var %g want %g", fit.Variance(), target.Variance())
	}
}

func TestSelectMixtureAIC(t *testing.T) {
	g := rng.New(4)
	// Unimodal cloud: one component must win under BIC (AIC's 2-per-param
	// penalty can legitimately prefer a k=2 overfit on a finite sample).
	uni := NewEmpirical(SampleN(NewNormal(5, 1), 400, g), nil)
	if d, k := SelectMixture(uni, 3, BIC, FitMixtureOptions{Seed: 5}); k != 1 {
		t.Errorf("unimodal cloud selected k=%d (%v)", k, d)
	} else if _, ok := d.(Normal); !ok {
		t.Errorf("k=1 result should be a Normal, got %T", d)
	}
	// Well-separated bimodal cloud: a mixture must win and recover the modes.
	target := NewGaussianMixture([]float64{0.5, 0.5}, []float64{0, 10}, []float64{1, 1})
	bi := NewEmpirical(SampleN(target, 400, g), nil)
	d, k := SelectMixture(bi, 3, AIC, FitMixtureOptions{Seed: 6})
	if k < 2 {
		t.Fatalf("bimodal cloud selected k=%d", k)
	}
	mix, ok := d.(*Mixture)
	if !ok {
		t.Fatalf("k>=2 result should be *Mixture, got %T", d)
	}
	if vd := VarianceDistance(mix, target, 2048); vd > 0.15 {
		t.Errorf("mixture fit distance = %g", vd)
	}
}

func TestConfidenceIntervalAndProbs(t *testing.T) {
	n := NewNormal(0, 1)
	iv := ConfidenceInterval(n, 0.95)
	if math.Abs(iv.Lo+1.96) > 0.01 || math.Abs(iv.Hi-1.96) > 0.01 {
		t.Errorf("95%% CI = [%g, %g]", iv.Lo, iv.Hi)
	}
	if !iv.Contains(0) || iv.Contains(3) || iv.Width() <= 0 {
		t.Error("interval predicates")
	}
	if math.Abs(ProbAbove(n, 0)-0.5) > 1e-12 {
		t.Errorf("ProbAbove = %g", ProbAbove(n, 0))
	}
}

func TestVarianceDistanceBasics(t *testing.T) {
	a := NewNormal(0, 1)
	if d := VarianceDistance(a, NewNormal(0, 1), 4096); d > 1e-9 {
		t.Errorf("identical distance = %g", d)
	}
	far := VarianceDistance(a, NewNormal(100, 1), 4096)
	if far < 0.99 || far > 1 {
		t.Errorf("disjoint distance = %g", far)
	}
	ab := VarianceDistance(a, NewNormal(1, 2), 2048)
	ba := VarianceDistance(NewNormal(1, 2), a, 2048)
	if math.Abs(ab-ba) > 1e-12 {
		t.Errorf("asymmetric: %g vs %g", ab, ba)
	}
}

func TestVarianceDistanceAtoms(t *testing.T) {
	// Disjoint atoms are fully apart; identical atoms are identical.
	if d := VarianceDistance(PointMass{V: 0}, PointMass{V: 5}, 1024); d != 1 {
		t.Errorf("disjoint atoms distance = %g, want 1", d)
	}
	if d := VarianceDistance(PointMass{V: 2}, PointMass{V: 2}, 1024); d != 0 {
		t.Errorf("identical atoms distance = %g, want 0", d)
	}
	// A Bernoulli-gated value vs the ungated value differ by at least the
	// gate's atom mass at 0.
	gated := NewMixture([]float64{0.3, 0.7}, []Dist{PointMass{V: 0}, NewNormal(10, 1)})
	if d := VarianceDistance(gated, NewNormal(10, 1), 2048); d < 0.3-1e-9 {
		t.Errorf("gated distance = %g, want >= 0.3 (atom mass)", d)
	}
	// Identical gated mixtures are identical.
	if d := VarianceDistance(gated, NewMixture([]float64{0.3, 0.7}, []Dist{PointMass{V: 0}, NewNormal(10, 1)}), 2048); d > 1e-9 {
		t.Errorf("identical gated distance = %g", d)
	}
}

func TestPointMassAndSampleN(t *testing.T) {
	p := PointMass{V: 2.5}
	if p.Mean() != 2.5 || p.Variance() != 0 || p.CDF(2.4) != 0 || p.CDF(2.5) != 1 {
		t.Error("point mass basics")
	}
	g := rng.New(7)
	xs := SampleN(p, 10, g)
	if len(xs) != 10 || xs[0] != 2.5 {
		t.Error("SampleN")
	}
	if Std(NewNormal(1, 3)) != 3 {
		t.Error("Std free function")
	}
}
