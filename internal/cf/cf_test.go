package cf

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func TestGilPelaezPDFGaussian(t *testing.T) {
	n := dist.NewNormal(-1, 0.8)
	phi := Of(n)
	for _, x := range []float64{-3, -1, 0, 1} {
		got := GilPelaezPDF(phi, x, n.Sigma)
		want := n.PDF(x)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("GilPelaezPDF(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestSumOfTwoUniformsIsTriangle(t *testing.T) {
	// U(0,1) + U(0,1) has the triangular (Irwin-Hall n=2) density.
	u := dist.NewUniform(0, 1)
	phi := SumOf([]dist.Dist{u, u})
	for _, x := range []float64{0.25, 0.5, 1, 1.5, 1.75} {
		want := x
		if x > 1 {
			want = 2 - x
		}
		got := GilPelaezPDF(phi, x, 1)
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("triangle pdf(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestInvertGaussianSum(t *testing.T) {
	ns := []dist.Dist{dist.NewNormal(1, 1), dist.NewNormal(2, 2), dist.NewNormal(-3, 0.5)}
	phi := SumOf(ns)
	h := Invert(phi, InvertOptions{N: 4096})
	exact := dist.ConvolveNormals(dist.NewNormal(1, 1), dist.NewNormal(2, 2), dist.NewNormal(-3, 0.5))
	if d := dist.VarianceDistance(h, exact, 4096); d > 1e-3 {
		t.Errorf("inverted sum distance = %g", d)
	}
	if math.Abs(h.Mean()-exact.Mean()) > 0.01 {
		t.Errorf("mean %g vs %g", h.Mean(), exact.Mean())
	}
}

func TestInvertMixtureSum(t *testing.T) {
	// Sum of two bimodal mixtures: exact result is a 4-component mixture.
	m1 := dist.NewGaussianMixture([]float64{0.5, 0.5}, []float64{-2, 2}, []float64{0.5, 0.5})
	m2 := dist.NewGaussianMixture([]float64{0.3, 0.7}, []float64{0, 5}, []float64{1, 1})
	phi := SumOf([]dist.Dist{m1, m2})
	h := Invert(phi, InvertOptions{N: 4096})

	exact := dist.NewGaussianMixture(
		[]float64{0.15, 0.35, 0.15, 0.35},
		[]float64{-2, 3, 2, 7},
		[]float64{math.Sqrt(1.25), math.Sqrt(1.25), math.Sqrt(1.25), math.Sqrt(1.25)},
	)
	if d := dist.VarianceDistance(h, exact, 4096); d > 2e-3 {
		t.Errorf("mixture-sum inversion distance = %g", d)
	}
}

func TestNumericCumulants(t *testing.T) {
	n := dist.NewNormal(3, 2)
	m, v := NumericCumulants(Of(n))
	if math.Abs(m-3) > 1e-5 || math.Abs(v-4) > 1e-3 {
		t.Errorf("cumulants = (%g, %g), want (3, 4)", m, v)
	}
}

func TestSumMomentsAdditive(t *testing.T) {
	ds := []dist.Dist{dist.NewUniform(0, 2), dist.NewExponential(0.5), dist.NewNormal(1, 1)}
	m, v := SumMoments(ds)
	wantM := 1 + 2 + 1.0
	wantV := 4.0/12 + 4 + 1
	if math.Abs(m-wantM) > 1e-12 || math.Abs(v-wantV) > 1e-12 {
		t.Errorf("SumMoments = (%g, %g), want (%g, %g)", m, v, wantM, wantV)
	}
}

func TestApproxGaussianSumCLTAccuracy(t *testing.T) {
	// With many i.i.d. uniform summands the Gaussian approximation should be
	// nearly exact (CLT); with two it should be visibly off.
	u := dist.NewUniform(0, 1)
	many := make([]dist.Dist, 50)
	for i := range many {
		many[i] = u
	}
	exactMany := Invert(SumOf(many), InvertOptions{N: 4096})
	cltMany := ApproxGaussianSum(many)
	if d := dist.VarianceDistance(exactMany, cltMany, 4096); d > 0.01 {
		t.Errorf("CLT distance for n=50 = %g, want < 0.01", d)
	}

	two := []dist.Dist{u, u}
	exactTwo := Invert(SumOf(two), InvertOptions{N: 4096})
	cltTwo := ApproxGaussianSum(two)
	dTwo := dist.VarianceDistance(exactTwo, cltTwo, 4096)
	if dTwo < 0.01 {
		t.Errorf("n=2 triangle vs Gaussian distance = %g, expected visible error", dTwo)
	}
}

func TestFitGMMToCFBimodal(t *testing.T) {
	// Target: a clearly bimodal mixture. The CF fit must recover both humps.
	target := dist.NewGaussianMixture([]float64{0.5, 0.5}, []float64{-4, 4}, []float64{1, 1})
	fit := FitGMMToCF(Of(target), GMMFitOptions{K: 2})
	if d := dist.VarianceDistance(target, fit, 4096); d > 0.05 {
		t.Errorf("GMM CF fit distance = %g", d)
	}
	// A single Gaussian cannot get closer than ~0.2 for this target.
	gauss := dist.NewNormal(target.Mean(), math.Sqrt(target.Variance()))
	if dg := dist.VarianceDistance(target, gauss, 4096); dg < 0.2 {
		t.Errorf("sanity: single Gaussian distance = %g, expected > 0.2", dg)
	}
}

func TestPairwiseConvolutionMatchesExact(t *testing.T) {
	ns := []dist.Dist{dist.NewNormal(0, 1), dist.NewNormal(1, 1), dist.NewNormal(2, 1), dist.NewNormal(3, 1)}
	got := PairwiseConvolutionSum(ns, 512)
	exact := dist.NewNormal(6, 2)
	if d := dist.VarianceDistance(got, exact, 4096); d > 0.02 {
		t.Errorf("pairwise convolution distance = %g", d)
	}
}
