// Package cf implements the characteristic-function machinery of §5.1: exact
// derivation of aggregate result distributions by multiplying closed-form
// CFs and inverting with a *single* integral (contrast: the n−1 nested
// integrals of Cheng et al. [9]), plus the fast approximations the paper
// shows dominating the speed/accuracy trade-off in Table 2.
package cf

import (
	"math"
	"math/cmplx"

	"repro/internal/dist"
	"repro/internal/mathx"
)

// Func is a characteristic function φ(t) = E[exp(itX)].
type Func func(t float64) complex128

// Of returns the characteristic function of a distribution.
func Of(d dist.Dist) Func { return d.CF }

// SumOf returns the CF of the sum of independent variables with the given
// distributions. For common input families every factor has a closed form,
// so evaluating the product CF is O(n) multiplications with no integration.
func SumOf(ds []dist.Dist) Func {
	return func(t float64) complex128 {
		out := complex(1, 0)
		for _, d := range ds {
			out *= d.CF(t)
		}
		return out
	}
}

// SumMoments returns the exact mean and variance of the sum of independent
// variables (cumulants are additive). This powers the "CF approximation":
// fitting the Gaussian CF exp(iμt − σ²t²/2) to the closed-form product CF by
// matching the first two derivatives of log φ at t = 0.
func SumMoments(ds []dist.Dist) (mean, variance float64) {
	for _, d := range ds {
		mean += d.Mean()
		variance += d.Variance()
	}
	return mean, variance
}

// GilPelaezPDF evaluates the density at x from φ by the Gil-Pelaez
// inversion formula — the paper's "single integral":
//
//	f(x) = (1/π) ∫₀^∞ Re[e^{−itx} φ(t)] dt.
func GilPelaezPDF(phi Func, x float64, scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	integrand := func(t float64) float64 {
		v := cmplx.Exp(complex(0, -t*x)) * phi(t)
		return real(v)
	}
	integral := mathx.IntegrateOsc(integrand, math.Pi/scale, mathx.QuadOptions{AbsTol: 1e-10, RelTol: 1e-9})
	return math.Max(0, integral/math.Pi)
}

// InvertOptions controls FFT-based inversion of a CF onto a density grid.
type InvertOptions struct {
	// N is the grid size (power of two; default 2048).
	N int
	// Lo, Hi bound the output support. If both are zero the range is
	// inferred from the CF's cumulants as mean ± 12σ.
	Lo, Hi float64
}

// Invert recovers the density from φ on a regular grid using one FFT and
// returns it as a Histogram distribution. This is the production form of the
// exact method: a single O(N log N) inversion replacing per-point quadrature.
func Invert(phi Func, opts InvertOptions) *dist.Histogram {
	n := opts.N
	if n <= 0 {
		n = 2048
	}
	n = mathx.NextPow2(n)
	lo, hi := opts.Lo, opts.Hi
	if lo == 0 && hi == 0 {
		m, v := NumericCumulants(phi)
		sd := math.Sqrt(math.Max(v, 1e-300))
		lo, hi = m-12*sd, m+12*sd
	}
	if hi <= lo {
		hi = lo + 1
	}
	dx := (hi - lo) / float64(n)
	dt := 2 * math.Pi / (float64(n) * dx)

	// f(x_j) = (1/π) Re Σ_k w_k φ(t_k) e^{−i t_k x_j} dt, t_k = k dt,
	// using φ(−t) = conj(φ(t)). Densities are evaluated at bin centers
	// x_j = lo + (j+½) dx so the histogram masses line up with the
	// continuous density; the center phase factors into e^{−i t_k (lo+dx/2)}
	// · e^{−2πi jk / n}: a forward DFT.
	buf := make([]complex128, n)
	x0 := lo + dx/2
	for k := 0; k < n; k++ {
		t := float64(k) * dt
		w := 1.0
		if k == 0 {
			w = 0.5 // trapezoid end-correction at t = 0
		}
		buf[k] = phi(t) * cmplx.Exp(complex(0, -t*x0)) * complex(w, 0)
	}
	mathx.FFT(buf)
	masses := make([]float64, n)
	for j := 0; j < n; j++ {
		f := real(buf[j]) * dt / math.Pi
		if f < 0 {
			f = 0 // ringing below machine scale
		}
		masses[j] = f * dx
	}
	return dist.NewHistogram(lo, hi, masses)
}

// NumericCumulants estimates the mean and variance implied by φ from central
// finite differences of log φ at 0. Used when the caller has only the CF
// (e.g. a product of factors whose moments it no longer knows).
func NumericCumulants(phi Func) (mean, variance float64) {
	const h = 1e-4
	l := func(t float64) complex128 { return cmplx.Log(phi(t)) }
	d1 := (l(h) - l(-h)) / complex(2*h, 0)
	d2 := (l(h) - 2*l(0) + l(-h)) / complex(h*h, 0)
	// κ1 = −i (log φ)'(0), κ2 = −(log φ)''(0).
	return imag(d1), -real(d2)
}
