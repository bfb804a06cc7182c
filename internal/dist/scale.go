package dist

import "math"

// Scale returns the distribution of k·X, dispatching to closed forms where
// the family is closed under scaling and falling back to a moment-matched
// Gaussian otherwise. It is the shared scaling kernel behind unit
// conversions and grouping-cell rescaling (Q1's area(x/cell, y/cell)) and
// the averaging step of aggregation (mean = sum scaled by 1/n).
//
// Closed forms:
//
//   - Normal:      N(kμ, |k|σ)
//   - PointMass:   δ(kv)
//   - Uniform:     U(kA, kB) (endpoints reordered for k < 0)
//   - Exponential: Exp(rate/k) for k > 0
//   - Mixture:     component-wise by linearity, weights unchanged
//   - Histogram:   support rescaled; bin masses reversed for k < 0
//   - Truncated:   the scaled base conditioned on the scaled interval
//
// Anything else is approximated as N(k·E[X], |k|·Std(X)) with a small σ
// floor so degenerate inputs stay valid distributions.
func Scale(d Dist, k float64) Dist {
	if k == 1 {
		return d
	}
	if k == 0 {
		return PointMass{V: 0}
	}
	switch v := d.(type) {
	case Normal:
		return v.ScaleShift(k, 0)
	case PointMass:
		return PointMass{V: v.V * k}
	case Uniform:
		return NewUniform(v.A*k, v.B*k)
	case Exponential:
		if k > 0 {
			return NewExponential(v.Rate / k)
		}
	case *Mixture:
		comps := make([]Dist, len(v.Components))
		for i, c := range v.Components {
			comps[i] = Scale(c, k)
		}
		return NewMixture(append([]float64(nil), v.Weights...), comps)
	case *Histogram:
		lo, hi := v.Lo*k, v.Hi*k
		probs := v.Masses()
		if k < 0 {
			lo, hi = hi, lo
			for i, j := 0, len(probs)-1; i < j; i, j = i+1, j-1 {
				probs[i], probs[j] = probs[j], probs[i]
			}
		}
		return NewHistogram(lo, hi, probs)
	case *Truncated:
		lo, hi := v.Lo*k, v.Hi*k
		if k < 0 {
			lo, hi = hi, lo
		}
		return NewTruncated(Scale(v.Base, k), lo, hi)
	}
	return NewNormal(d.Mean()*k, math.Max(math.Abs(k)*d.Std(), 1e-9))
}
