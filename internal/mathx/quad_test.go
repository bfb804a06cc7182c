package mathx

import (
	"math"
	"testing"
)

func TestIntegratePolynomial(t *testing.T) {
	// ∫0..2 (3x^2 + 2x + 1) dx = 8 + 4 + 2 = 14.
	got := Integrate(func(x float64) float64 { return 3*x*x + 2*x + 1 }, 0, 2, QuadOptions{})
	if math.Abs(got-14) > 1e-10 {
		t.Errorf("polynomial integral = %.12g, want 14", got)
	}
}

func TestIntegrateReversedLimits(t *testing.T) {
	f := func(x float64) float64 { return x }
	a := Integrate(f, 0, 3, QuadOptions{})
	b := Integrate(f, 3, 0, QuadOptions{})
	if math.Abs(a+b) > 1e-12 {
		t.Errorf("reversed limits should negate: %g vs %g", a, b)
	}
}

func TestIntegrateSemiInfinite(t *testing.T) {
	// ∫0..inf exp(-x) dx = 1.
	got := Integrate(func(x float64) float64 { return math.Exp(-x) }, 0, math.Inf(1), QuadOptions{})
	if math.Abs(got-1) > 1e-7 {
		t.Errorf("exp integral = %.12g, want 1", got)
	}
}

func TestIntegrateGaussianOverR(t *testing.T) {
	got := Integrate(func(x float64) float64 {
		return math.Exp(-(x-3)*(x-3)/8) / (2 * Sqrt2Pi)
	}, math.Inf(-1), math.Inf(1), QuadOptions{})
	if math.Abs(got-1) > 1e-7 {
		t.Errorf("shifted gaussian integral = %.12g, want 1", got)
	}
}

func TestIntegrateOscDampedCosine(t *testing.T) {
	// ∫0..inf exp(-t) cos(t) dt = 1/2.
	got := IntegrateOsc(func(u float64) float64 { return math.Exp(-u) * math.Cos(u) }, math.Pi, QuadOptions{})
	if math.Abs(got-0.5) > 1e-8 {
		t.Errorf("damped cosine = %.12g, want 0.5", got)
	}
}

func TestTrapz(t *testing.T) {
	xs := Linspace(0, 1, 1001)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	got := Trapz(ys, xs[1]-xs[0])
	if math.Abs(got-1.0/3) > 1e-6 {
		t.Errorf("trapz x^2 = %g, want 1/3", got)
	}
}

func TestBisectMonotone(t *testing.T) {
	g := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	x := BisectMonotone(g, 0.75, -20, 20, 1e-12)
	if math.Abs(g(x)-0.75) > 1e-10 {
		t.Errorf("BisectMonotone: g(%g) = %g, want 0.75", x, g(x))
	}
}
