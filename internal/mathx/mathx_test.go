package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if math.Abs(got-math.Log(6)) > 1e-12 {
		t.Errorf("LogSumExp = %g, want log(6)", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Error("LogSumExp(nil) should be -Inf")
	}
	// Stability: huge values must not overflow.
	got = LogSumExp([]float64{1000, 1000})
	if math.Abs(got-(1000+math.Log(2))) > 1e-9 {
		t.Errorf("LogSumExp stability: got %g", got)
	}
}

func TestWeightedMeanVarMatchesClosedForm(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ws := []float64{1, 1, 1, 1}
	m, v := WeightedMeanVar(xs, ws)
	if math.Abs(m-2.5) > 1e-12 || math.Abs(v-1.25) > 1e-12 {
		t.Errorf("got mean=%g var=%g, want 2.5, 1.25", m, v)
	}
	// Scaling weights must not change the result.
	ws2 := []float64{10, 10, 10, 10}
	m2, v2 := WeightedMeanVar(xs, ws2)
	if math.Abs(m-m2) > 1e-12 || math.Abs(v-v2) > 1e-12 {
		t.Error("weight scaling changed weighted moments")
	}
}

func TestWeightedMeanVarZeroWeight(t *testing.T) {
	m, v := WeightedMeanVar([]float64{1, 2}, []float64{0, 0})
	if m != 0 || v != 0 {
		t.Errorf("zero weights should give (0,0), got (%g,%g)", m, v)
	}
}

func TestMeanVarWelford(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, v := MeanVar(xs)
	if math.Abs(m-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", m)
	}
	if math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("var = %g, want %g", v, 32.0/7)
	}
}

func TestKahanSumPrecision(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation collapses, Kahan keeps the residual.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1e-16)
	}
	got := KahanSum(xs)
	want := 1 + 1e-12
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("KahanSum = %.18g, want %.18g", got, want)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(-1, 1, 5)
	want := []float64{-1, -0.5, 0, 0.5, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		c := Clamp(x, -1, 1)
		return c >= -1 && c <= 1 && (x < -1 || x > 1 || c == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
