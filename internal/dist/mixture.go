package dist

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// Mixture is a finite mixture Σ wᵢ·fᵢ — the representation of multi-modal
// tuple distributions (§4.3's moved-object case) and of Bernoulli-gated
// existence (a point mass at 0 mixed with the value distribution), whose CF
// stays closed-form: φ = Σ wᵢ·φᵢ.
type Mixture struct {
	// Weights are the mixing proportions, normalized to sum to 1.
	Weights []float64
	// Components are the mixed distributions, aligned with Weights.
	Components []Dist
}

// NewMixture builds a mixture from (possibly unnormalized) weights and
// components. Weights and components must align and be non-empty. A
// two-component mixture — every Bernoulli gate — is one allocation.
func NewMixture(weights []float64, components []Dist) *Mixture {
	if len(weights) != len(components) || len(weights) == 0 {
		panic("dist: mixture weights/components mismatch")
	}
	if len(weights) == 2 {
		b := &struct {
			m Mixture
			w [2]float64
			c [2]Dist
		}{c: [2]Dist{components[0], components[1]}}
		b.m = Mixture{Weights: normalize(b.w[:], weights), Components: b.c[:]}
		return &b.m
	}
	return &Mixture{
		Weights:    normalize(make([]float64, len(weights)), weights),
		Components: append([]Dist(nil), components...),
	}
}

// normalize writes weights, negative ones as 0, scaled to sum to 1 into ws
// and returns it.
func normalize(ws, weights []float64) []float64 {
	var total float64
	for i, w := range weights {
		if w > 0 {
			ws[i] = w
			total += w
		}
	}
	if total <= 0 {
		panic("dist: mixture needs positive total weight")
	}
	for i := range ws {
		ws[i] /= total
	}
	return ws
}

// NewGaussianMixture builds Σ wᵢ·N(muᵢ, sigmaᵢ²).
func NewGaussianMixture(weights, mus, sigmas []float64) *Mixture {
	if len(mus) != len(weights) || len(sigmas) != len(weights) {
		panic("dist: gaussian mixture parameter length mismatch")
	}
	comps := make([]Dist, len(mus))
	for i := range mus {
		comps[i] = NewNormal(mus[i], sigmas[i])
	}
	return NewMixture(weights, comps)
}

// Mean is the weighted component mean.
func (m *Mixture) Mean() float64 {
	var mu float64
	for i, w := range m.Weights {
		mu += w * m.Components[i].Mean()
	}
	return mu
}

// Variance uses the law of total variance: Σ w(σᵢ² + μᵢ²) − μ².
func (m *Mixture) Variance() float64 {
	mean := m.Mean()
	var s float64
	for i, w := range m.Weights {
		mi := m.Components[i].Mean()
		s += w * (m.Components[i].Variance() + mi*mi)
	}
	v := s - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// Std returns the standard deviation.
func (m *Mixture) Std() float64 { return math.Sqrt(m.Variance()) }

// PDF is the weighted component density.
func (m *Mixture) PDF(x float64) float64 {
	var f float64
	for i, w := range m.Weights {
		f += w * m.Components[i].PDF(x)
	}
	return f
}

// CDF is the weighted component CDF.
func (m *Mixture) CDF(x float64) float64 {
	var f float64
	for i, w := range m.Weights {
		f += w * m.Components[i].CDF(x)
	}
	return f
}

// Quantile inverts the mixture CDF by bisection inside the exact bracket
// [minᵢ Qᵢ(p), maxᵢ Qᵢ(p)] (each component CDF is ≥/≤ p at the bracket
// ends, hence so is their convex combination).
func (m *Mixture) Quantile(p float64) float64 {
	p = mathx.Clamp(p, 1e-15, 1-1e-15)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.Components {
		q := c.Quantile(p)
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	if !(hi > lo) {
		return lo
	}
	tol := 1e-12 * (1 + math.Abs(hi-lo))
	return mathx.BisectMonotone(m.CDF, p, lo, hi, tol)
}

// Sample draws a component by weight, then from it.
func (m *Mixture) Sample(g *rng.RNG) float64 {
	return m.Components[g.Categorical(m.Weights)].Sample(g)
}

// CF is the weighted component CF — closed form whenever the components'
// are, which is what lets Bernoulli-gated tuples ride the exact CF
// aggregation path with no special cases.
func (m *Mixture) CF(t float64) complex128 {
	var out complex128
	for i, w := range m.Weights {
		out += complex(w, 0) * m.Components[i].CF(t)
	}
	return out
}

// Support is the union of the component supports.
func (m *Mixture) Support() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.Components {
		clo, chi := c.Support()
		lo = math.Min(lo, clo)
		hi = math.Max(hi, chi)
	}
	return lo, hi
}

// String formats the distribution for diagnostics.
func (m *Mixture) String() string {
	return fmt.Sprintf("Mix(k=%d, μ=%.4g, σ=%.4g)", len(m.Weights), m.Mean(), m.Std())
}
