// Package dist implements probability distributions as first-class citizens
// — the data model of §3: uncertain attributes are continuous random
// variables carried through the query plan as full distribution objects, so
// operators can derive exact or approximate result distributions instead of
// propagating point estimates.
//
// Every distribution exposes the same interface: moments, density, CDF,
// quantiles, seeded sampling, the characteristic function (the workhorse of
// §5.1's exact aggregation), and support bounds. Concrete families cover the
// paper's needs: Normal (the tuple-level KL fit of §4.3), PointMass (certain
// attributes), Uniform and Exponential (workload generators and CF tests),
// Histogram (the Ge & Zdonik baseline and the output of CF inversion),
// Mixture (multi-modal tuple distributions and Bernoulli-gated existence),
// Truncated (conditional distributions after uncertain selections), and
// Empirical (weighted particle clouds awaiting compression).
package dist

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// Dist is a one-dimensional probability distribution. Implementations must
// be cheap to copy or be pointer types; all randomness flows through the
// explicit *rng.RNG so experiments replay bit-for-bit.
type Dist interface {
	// Mean returns E[X].
	Mean() float64
	// Variance returns Var[X].
	Variance() float64
	// Std returns the standard deviation √Var[X].
	Std() float64
	// PDF returns the density at x (0 outside the support; point masses
	// report 0 everywhere and are handled by CDF-based callers).
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-quantile, p in [0, 1]. Unbounded families may
	// return ±Inf at the endpoints.
	Quantile(p float64) float64
	// Sample draws one value.
	Sample(g *rng.RNG) float64
	// CF evaluates the characteristic function φ(t) = E[exp(itX)].
	CF(t float64) complex128
	// Support returns the (possibly infinite) support bounds.
	Support() (lo, hi float64)
}

// Std is the free-function form of Dist.Std, kept for call-site readability
// (dist.Std(sum) reads better than sum.Std() in reporting code).
func Std(d Dist) float64 { return d.Std() }

// SampleN draws n values from d.
func SampleN(d Dist, n int, g *rng.RNG) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(g)
	}
	return out
}

// ProbAbove returns P(X > x).
func ProbAbove(d Dist, x float64) float64 {
	return mathx.Clamp(1-d.CDF(x), 0, 1)
}

// Interval is a closed interval, used for confidence regions (§3's
// "confidence region" delivery mode).
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns the interval length.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// ConfidenceInterval returns the central interval covering the given
// probability level (e.g. 0.95 → [q_0.025, q_0.975]).
func ConfidenceInterval(d Dist, level float64) Interval {
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	alpha := (1 - level) / 2
	return Interval{Lo: d.Quantile(alpha), Hi: d.Quantile(1 - alpha)}
}

// EffectiveRange returns finite bounds enclosing essentially all of d's
// mass: the support when finite, the eps/1−eps quantiles otherwise.
// Bounded-domain consumers (quadrature, grid metrics, discretization) use
// it instead of hand-rolling the Support/IsInf/Quantile fallback. It takes
// a Val as well, so the value form is ranged without a box.
func EffectiveRange[D ranged](d D, eps float64) (lo, hi float64) {
	lo, hi = d.Support()
	if math.IsInf(lo, -1) || math.IsNaN(lo) {
		lo = d.Quantile(eps)
	}
	if math.IsInf(hi, 1) || math.IsNaN(hi) {
		hi = d.Quantile(1 - eps)
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo, hi
}

// ranged is what EffectiveRange reads of a distribution.
type ranged interface {
	Support() (lo, hi float64)
	Quantile(p float64) float64
}

// VarianceDistance is the accuracy metric of the Table 2 experiments: the
// total-variation distance ½(Σ|Δatoms| + ∫|f_a − f_b|) between two result
// distributions, with the continuous part evaluated by midpoint quadrature
// on an n-point grid over the union of the effective supports. Atom mass
// (point masses, including ones nested in mixtures) is compared exactly —
// densities are blind to it. The result is 0 for identical distributions
// and approaches 1 for disjoint ones.
func VarianceDistance(a, b Dist, n int) float64 {
	if n <= 0 {
		n = 2048
	}
	atomsA := map[float64]float64{}
	atomsB := map[float64]float64{}
	atomMasses(a, 1, atomsA)
	atomMasses(b, 1, atomsB)
	var atomTV float64
	for v, m := range atomsA {
		atomTV += math.Abs(m - atomsB[v])
	}
	for v, m := range atomsB {
		if _, seen := atomsA[v]; !seen {
			atomTV += m
		}
	}

	alo, ahi := EffectiveRange(a, 1e-9)
	blo, bhi := EffectiveRange(b, 1e-9)
	lo, hi := math.Min(alo, blo), math.Max(ahi, bhi)
	var sum float64
	if hi > lo {
		w := (hi - lo) / float64(n)
		for i := 0; i < n; i++ {
			x := lo + (float64(i)+0.5)*w
			sum += math.Abs(a.PDF(x) - b.PDF(x))
		}
		sum *= w
	}
	return mathx.Clamp(0.5*(atomTV+sum), 0, 1)
}

// atomMasses accumulates the point masses of d (scaled by the enclosing
// mixture weight) into out.
func atomMasses(d Dist, scale float64, out map[float64]float64) {
	switch v := d.(type) {
	case PointMass:
		out[v.V] += scale
	case Normal:
		if v.Sigma == 0 {
			out[v.Mu] += scale
		}
	case *Mixture:
		for i, c := range v.Components {
			atomMasses(c, scale*v.Weights[i], out)
		}
	}
}
