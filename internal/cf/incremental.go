// Incremental cumulant machinery for sliding-window aggregation. The CF
// approximation needs only the first two cumulants of the window sum, and
// cumulants of independent contributions are additive — so a sliding window
// can maintain them under insertions and evictions instead of re-scanning
// every input per slide (§5.1: "the computation cost for the result
// distribution is almost zero"). This file provides the pieces the
// incremental aggregation path composes:
//
//   - Cumulants: the (κ1, κ2) pair.
//   - GatedCumulants: the closed-form moments of a Bernoulli-gated
//     contribution, bit-for-bit identical to constructing the gate mixture
//     and reading its moments (so incremental and recompute paths agree
//     byte-for-byte, not approximately).
//   - GaussianFromCumulants: the cumulant-matched result distribution.
package cf

import (
	"math"

	"repro/internal/dist"
	"repro/internal/mathx"
)

// Cumulants carries the first two cumulants (mean and variance) of a
// distribution or of a sum of independent contributions.
type Cumulants struct {
	K1 float64 // mean
	K2 float64 // variance
}

// GatedCumulants returns the cumulants of X·B where B ~ Bernoulli(p) and X
// has the given mean and variance: closed-form p·μ and p·σ² + p(1−p)·μ².
//
// The arithmetic deliberately mirrors core.BernoulliGate followed by
// Mixture.Mean/Variance operation for operation — including the mixture's
// weight normalization ((1−p)+p is not exactly 1 in floating point for all
// p) and the law-of-total-variance form p·(σ²+μ²) − (p·μ)² — so the value
// is bit-identical to gating a tuple and reading the mixture's moments.
// That identity is what lets the incremental window path produce
// byte-identical alerts to the recompute path; a test pins it.
func GatedCumulants(mean, variance, p float64) Cumulants {
	p = mathx.Clamp(p, 0, 1)
	if p >= 1 {
		return Cumulants{K1: mean, K2: variance}
	}
	if p <= 0 {
		return Cumulants{}
	}
	// Mirror dist.NewMixture's weight normalization.
	q := 1 - p
	total := q + p
	w0 := q / total
	w1 := p / total
	// Mirror Mixture.Mean: fold over components, point mass at 0 first.
	m := w0 * 0
	m += w1 * mean
	// Mirror Mixture.Variance: Σ wᵢ(σᵢ² + μᵢ²) − μ², clamped at 0.
	s := w0 * (0 + 0*0)
	s += w1 * (variance + mean*mean)
	v := s - m*m
	if v < 0 {
		v = 0
	}
	return Cumulants{K1: m, K2: v}
}

// GaussianFromCumulants builds the cumulant-matched Gaussian — the result
// distribution of the CF approximation and the CLT strategy. Zero or
// negative variance (a window of point masses) collapses to an effectively
// degenerate Gaussian rather than a NaN sigma.
func GaussianFromCumulants(c Cumulants) dist.Normal {
	v := c.K2
	if v <= 0 {
		v = 1e-18
	}
	return dist.NewNormal(c.K1, math.Sqrt(v))
}
