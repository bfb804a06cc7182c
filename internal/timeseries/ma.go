package timeseries

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// MA is a moving-average model of order q:
//
//	X_t = C + e_t + b_1 e_{t-1} + ... + b_q e_{t-q},  e_t ~ N(0, Sigma²).
//
// §4.4 models short radar pulse sequences as pure MA ("due to frequent
// sampling, a short sequence of data tends to describe the same phenomena,
// hence obviating the need of autoregression, but with correlated noise
// factors").
type MA struct {
	C     float64
	Theta []float64 // b_1..b_q
	Sigma float64   // innovation standard deviation
}

// Q returns the model order.
func (m MA) Q() int { return len(m.Theta) }

// Mean returns C.
func (m MA) Mean() float64 { return m.C }

// Variance returns γ(0) = σ²(1 + Σ b_j²).
func (m MA) Variance() float64 {
	s := 1.0
	for _, b := range m.Theta {
		s += b * b
	}
	return m.Sigma * m.Sigma * s
}

// Autocovariance returns γ(k) in closed form (0 beyond lag q).
func (m MA) Autocovariance(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k > len(m.Theta) {
		return 0
	}
	// γ(k) = σ² Σ_j b_j b_{j+k} with b_0 = 1.
	b := make([]float64, len(m.Theta)+1)
	b[0] = 1
	copy(b[1:], m.Theta)
	var s float64
	for j := 0; j+k < len(b); j++ {
		s += b[j] * b[j+k]
	}
	return m.Sigma * m.Sigma * s
}

// Simulate generates n observations (with a q-step warm-up discarded).
func (m MA) Simulate(n int, g *rng.RNG) []float64 {
	q := len(m.Theta)
	es := make([]float64, n+q)
	for i := range es {
		es[i] = g.Normal(0, m.Sigma)
	}
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		v := m.C + es[t+q]
		for j, b := range m.Theta {
			v += b * es[t+q-1-j]
		}
		out[t] = v
	}
	return out
}

// String implements fmt.Stringer.
func (m MA) String() string {
	return fmt.Sprintf("MA(%d){C=%.3g, θ=%v, σ=%.3g}", m.Q(), m.C, m.Theta, m.Sigma)
}

// FitMA estimates an MA(q) model from data with the innovations algorithm
// (Brockwell & Davis [5], §8.3), which needs only the sample
// autocovariances — no likelihood iterations — making it cheap enough for
// per-voxel stream fitting.
func FitMA(xs []float64, q int) (MA, error) {
	if q < 0 {
		return MA{}, fmt.Errorf("timeseries: negative MA order %d", q)
	}
	if len(xs) < 2*(q+1) {
		return MA{}, fmt.Errorf("timeseries: %d observations too few for MA(%d)", len(xs), q)
	}
	mu := Mean(xs)
	if q == 0 {
		acov := ACovF(xs, 0)
		return MA{C: mu, Sigma: math.Sqrt(math.Max(acov[0], 1e-300))}, nil
	}
	// Innovations algorithm up to step m >> q for convergence.
	m := q * 8
	if m > len(xs)-1 {
		m = len(xs) - 1
	}
	gamma := ACovF(xs, m)
	theta := make([][]float64, m+1) // theta[n][j] = θ_{n,j}, j = 1..n
	v := make([]float64, m+1)
	v[0] = gamma[0]
	if v[0] <= 0 {
		return MA{C: mu, Sigma: 1e-12}, nil
	}
	for n := 1; n <= m; n++ {
		theta[n] = make([]float64, n+1)
		for k := 0; k < n; k++ {
			s := gamma[n-k]
			for j := 0; j < k; j++ {
				s -= theta[k][k-j] * theta[n][n-j] * v[j]
			}
			theta[n][n-k] = s / v[k]
		}
		v[n] = gamma[0]
		for j := 0; j < n; j++ {
			v[n] -= theta[n][n-j] * theta[n][n-j] * v[j]
		}
		if v[n] <= 0 {
			v[n] = 1e-12
		}
	}
	coef := make([]float64, q)
	copy(coef, theta[m][1:q+1])
	return MA{C: mu, Theta: coef, Sigma: math.Sqrt(v[m])}, nil
}

// FitMAAuto identifies the order with IdentifyMA and fits it; falls back to
// MA(0) (white noise) when no cutoff is found inside maxLag.
func FitMAAuto(xs []float64, maxLag int) (MA, int, error) {
	q, ok := IdentifyMA(xs, maxLag, 0)
	if !ok {
		q = maxLag
	}
	model, err := FitMA(xs, q)
	return model, q, err
}
