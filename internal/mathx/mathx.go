// Package mathx provides the numerical substrate for the uncertainty-aware
// stream system: special functions for the normal distribution, adaptive
// quadrature, FFT, monotone inversion and Nelder-Mead minimization.
//
// Everything is implemented on top of the standard library only; the package
// exists because Go's standard library stops at math.Erf and the paper's
// techniques (characteristic-function inversion, KL-minimizing fits) need
// quadrature and inverse CDFs.
package mathx

import "math"

// Ln2Pi is log(2*pi), used by Gaussian log densities.
const Ln2Pi = 1.8378770664093454835606594728112353

// Sqrt2Pi is sqrt(2*pi), the Gaussian normalization constant.
const Sqrt2Pi = 2.5066282746310005024157652848110453

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// LogSumExp returns log(sum(exp(xs))) computed stably. It returns -Inf for an
// empty slice, matching the convention log(0) = -Inf.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	maxv := math.Inf(-1)
	for _, x := range xs {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}

// KahanSum accumulates a slice with compensated summation. Aggregation over
// long windows (the paper's N=100..76,000 pulse averages) is exactly the
// regime where naive summation loses digits.
func KahanSum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// WeightedMeanVar returns the weighted mean and the weighted (biased)
// variance of the value-weight pairs. The weights need not be normalized; a
// zero total weight yields (0, 0). These are exactly the closed-form
// KL-minimizing Gaussian parameters of §4.3 of the paper:
//
//	mu = sum_i w_i x_i / W,  sigma^2 = sum_i w_i (x_i - mu)^2 / W.
func WeightedMeanVar(xs, ws []float64) (mean, variance float64) {
	if len(xs) != len(ws) {
		panic("mathx: WeightedMeanVar length mismatch")
	}
	var wsum float64
	for _, w := range ws {
		wsum += w
	}
	if wsum <= 0 {
		return 0, 0
	}
	for i, x := range xs {
		mean += ws[i] * x
	}
	mean /= wsum
	for i, x := range xs {
		d := x - mean
		variance += ws[i] * d * d
	}
	variance /= wsum
	return mean, variance
}

// MeanVar returns the sample mean and the unbiased sample variance. It uses
// Welford's online algorithm for numerical stability.
func MeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var m, m2 float64
	for i, x := range xs {
		delta := x - m
		m += delta / float64(i+1)
		m2 += delta * (x - m)
	}
	if len(xs) < 2 {
		return m, 0
	}
	return m, m2 / float64(len(xs)-1)
}

// Linspace returns n evenly spaced points covering [lo, hi] inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Trapz integrates tabulated values ys over the equally spaced abscissae
// implied by step h using the trapezoidal rule.
func Trapz(ys []float64, h float64) float64 {
	if len(ys) < 2 {
		return 0
	}
	sum := (ys[0] + ys[len(ys)-1]) / 2
	for _, y := range ys[1 : len(ys)-1] {
		sum += y
	}
	return sum * h
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
