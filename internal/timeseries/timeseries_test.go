package timeseries

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestACFWhiteNoise(t *testing.T) {
	g := rng.New(1)
	xs := WhiteNoise(20000, 1, g)
	rho := ACF(xs, 10)
	if rho[0] != 1 {
		t.Errorf("rho(0) = %g", rho[0])
	}
	for k := 1; k <= 10; k++ {
		if math.Abs(rho[k]) > 0.03 {
			t.Errorf("white noise rho(%d) = %g", k, rho[k])
		}
	}
}

func TestACFConstantSeries(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	rho := ACF(xs, 2)
	if rho[0] != 1 || rho[1] != 0 {
		t.Errorf("constant series ACF = %v", rho)
	}
}

func TestMAAutocovarianceClosedForm(t *testing.T) {
	m := MA{C: 0, Theta: []float64{0.5, 0.25}, Sigma: 2}
	// γ(0) = 4(1 + 0.25 + 0.0625) = 5.25
	if got := m.Autocovariance(0); math.Abs(got-5.25) > 1e-12 {
		t.Errorf("γ(0) = %g", got)
	}
	// γ(1) = 4(0.5 + 0.5·0.25) = 2.5
	if got := m.Autocovariance(1); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("γ(1) = %g", got)
	}
	// γ(2) = 4·0.25 = 1
	if got := m.Autocovariance(2); math.Abs(got-1) > 1e-12 {
		t.Errorf("γ(2) = %g", got)
	}
	if m.Autocovariance(3) != 0 {
		t.Error("γ(3) should be 0 for MA(2)")
	}
	if got := m.Autocovariance(-1); math.Abs(got-2.5) > 1e-12 {
		t.Error("autocovariance must be symmetric in lag")
	}
}

func TestMASimulatedACFMatchesTheory(t *testing.T) {
	g := rng.New(2)
	m := MA{C: 10, Theta: []float64{0.8}, Sigma: 1}
	xs := m.Simulate(100000, g)
	gamma := ACovF(xs, 3)
	if math.Abs(Mean(xs)-10) > 0.02 {
		t.Errorf("mean = %g", Mean(xs))
	}
	if math.Abs(gamma[0]-m.Autocovariance(0)) > 0.05 {
		t.Errorf("γ̂(0) = %g, want %g", gamma[0], m.Autocovariance(0))
	}
	if math.Abs(gamma[1]-m.Autocovariance(1)) > 0.05 {
		t.Errorf("γ̂(1) = %g, want %g", gamma[1], m.Autocovariance(1))
	}
	if math.Abs(gamma[2]) > 0.05 {
		t.Errorf("γ̂(2) = %g, want ~0", gamma[2])
	}
}

func TestIdentifyMAOrders(t *testing.T) {
	g := rng.New(3)
	for wantQ := 0; wantQ <= 3; wantQ++ {
		theta := make([]float64, wantQ)
		for i := range theta {
			theta[i] = 0.7 / float64(i+1)
		}
		m := MA{Theta: theta, Sigma: 1}
		xs := m.Simulate(50000, g)
		q, ok := IdentifyMA(xs, 12, 0)
		if !ok {
			t.Errorf("MA(%d): no cutoff found", wantQ)
			continue
		}
		if q != wantQ {
			t.Errorf("MA(%d) identified as MA(%d)", wantQ, q)
		}
	}
}

func TestFitMARecoverCoefficients(t *testing.T) {
	g := rng.New(4)
	truth := MA{C: 5, Theta: []float64{0.6, 0.3}, Sigma: 1.5}
	xs := truth.Simulate(200000, g)
	fit, err := FitMA(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.C-5) > 0.05 {
		t.Errorf("C = %g", fit.C)
	}
	if math.Abs(fit.Theta[0]-0.6) > 0.05 || math.Abs(fit.Theta[1]-0.3) > 0.05 {
		t.Errorf("θ = %v, want [0.6 0.3]", fit.Theta)
	}
	if math.Abs(fit.Sigma-1.5) > 0.05 {
		t.Errorf("σ = %g", fit.Sigma)
	}
}

func TestFitMAErrors(t *testing.T) {
	if _, err := FitMA([]float64{1, 2}, -1); err == nil {
		t.Error("negative order should error")
	}
	if _, err := FitMA([]float64{1, 2, 3}, 5); err == nil {
		t.Error("too-short series should error")
	}
}

func TestFitMAAutoWhiteNoise(t *testing.T) {
	g := rng.New(5)
	xs := WhiteNoise(20000, 2, g)
	m, q, err := FitMAAuto(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Errorf("white noise identified as MA(%d)", q)
	}
	if math.Abs(m.Sigma-2) > 0.05 {
		t.Errorf("σ = %g", m.Sigma)
	}
}

func TestLjungBox(t *testing.T) {
	g := rng.New(8)
	white := WhiteNoise(5000, 1, g)
	if _, ok := LjungBox(white, 10); !ok {
		t.Error("white noise rejected by Ljung-Box")
	}
	corr := MA{Theta: []float64{0.9}, Sigma: 1}.Simulate(5000, g)
	if _, ok := LjungBox(corr, 10); ok {
		t.Error("MA(1) accepted as white by Ljung-Box")
	}
}

func TestMeanCLTCoverage(t *testing.T) {
	// Simulate many MA(1) series; the CLT interval should cover the true
	// mean at roughly the nominal rate.
	g := rng.New(9)
	truth := MA{C: 3, Theta: []float64{0.7}, Sigma: 1}
	n := 2000
	trials := 300
	covered := 0
	for i := 0; i < trials; i++ {
		xs := truth.Simulate(n, g)
		d := MeanCLT(xs, 1)
		lo, hi := d.Quantile(0.025), d.Quantile(0.975)
		if lo <= 3 && 3 <= hi {
			covered++
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("CLT coverage = %g, want ~0.95", rate)
	}
}

func TestMeanCLTIgnoringCorrelationUndercovers(t *testing.T) {
	// The whole point of §4.4: treating positively correlated samples as
	// independent understates the variance of the average. The q=0 interval
	// must be narrower than the q=1 interval for MA(1) data.
	g := rng.New(10)
	xs := MA{C: 0, Theta: []float64{0.9}, Sigma: 1}.Simulate(5000, g)
	iid := MeanCLT(xs, 0)
	corr := MeanCLT(xs, 1)
	if iid.Sigma >= corr.Sigma {
		t.Errorf("iid σ %g should be < MA-aware σ %g", iid.Sigma, corr.Sigma)
	}
	ratio := corr.Variance() / iid.Variance()
	// Theory: (γ0+2γ1)/γ0 = (1+θ²+2θ)/(1+θ²) ≈ 1.99 for θ=0.9.
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("variance inflation = %g, want ~2", ratio)
	}
}

func TestModelMeanDistExactSmallN(t *testing.T) {
	// Monte Carlo check of the exact finite-n mean distribution.
	g := rng.New(11)
	m := MA{C: 1, Theta: []float64{0.5}, Sigma: 1}
	n := 10
	want := ModelMeanDist(m, n)
	trials := 200000
	var s, s2 float64
	for i := 0; i < trials; i++ {
		xs := m.Simulate(n, g)
		mu := Mean(xs)
		s += mu
		s2 += mu * mu
	}
	mcMean := s / float64(trials)
	mcVar := s2/float64(trials) - mcMean*mcMean
	if math.Abs(mcMean-want.Mu) > 0.01 {
		t.Errorf("MC mean %g vs model %g", mcMean, want.Mu)
	}
	if math.Abs(mcVar-want.Variance()) > 0.01*want.Variance()+0.002 {
		t.Errorf("MC var %g vs model %g", mcVar, want.Variance())
	}
}

func TestSumCLTScaling(t *testing.T) {
	g := rng.New(12)
	xs := WhiteNoise(1000, 1, g)
	mean := MeanCLT(xs, 0)
	sum := SumCLT(xs, 0)
	if math.Abs(sum.Mu-1000*mean.Mu) > 1e-9 {
		t.Error("sum mean should be n × mean")
	}
	if math.Abs(sum.Sigma-1000*mean.Sigma) > 1e-9 {
		t.Error("sum σ should be n × mean σ")
	}
}

func TestARMASimulateStationary(t *testing.T) {
	g := rng.New(13)
	m := ARMA{C: 1, Phi: []float64{0.5}, Theta: []float64{0.3}, Sigma: 1}
	xs := m.Simulate(50000, g)
	// Stationary mean = C / (1 - φ) = 2.
	if math.Abs(Mean(xs)-2) > 0.05 {
		t.Errorf("ARMA mean = %g, want 2", Mean(xs))
	}
}
