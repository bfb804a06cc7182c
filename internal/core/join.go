package core

import (
	"math"

	"repro/internal/dist"
	"repro/internal/mathx"
)

// EqualProb computes P(|X − Y| <= tol) for independent uncertain attributes
// — the probabilistic semantics of Q2's loc_equals predicate over continuous
// random variables, where exact equality has probability zero and a spatial
// tolerance defines co-location:
//
//	P = ∫ f_X(x) · (F_Y(x+tol) − F_Y(x−tol)) dx.
//
// The integral is evaluated by adaptive quadrature over X's effective
// support — a single integral, in the spirit of §5.1.
func EqualProb(x, y dist.Dist, tol float64) float64 {
	if tol <= 0 {
		return 0
	}
	// Degenerate inputs (σ = 0 fits of collapsed particle clouds) have step
	// CDFs and zero densities, which quadrature cannot see: collapse them to
	// point masses so they take the closed-form paths below.
	if x.Std() == 0 {
		x = dist.PointMass{V: x.Mean()}
	}
	if y.Std() == 0 {
		y = dist.PointMass{V: y.Mean()}
	}
	// Mixtures decompose by linearity: P(|X−Y| <= tol) = Σ wᵢ·P(|Xᵢ−Y| <= tol).
	// This routes atom components (the Bernoulli-gated existence pattern)
	// onto the closed-form paths below — their mass is invisible to density
	// quadrature.
	if mx, ok := x.(*dist.Mixture); ok {
		var p float64
		for i, c := range mx.Components {
			p += mx.Weights[i] * EqualProb(c, y, tol)
		}
		return mathx.Clamp(p, 0, 1)
	}
	if my, ok := y.(*dist.Mixture); ok {
		var p float64
		for i, c := range my.Components {
			p += my.Weights[i] * EqualProb(x, c, tol)
		}
		return mathx.Clamp(p, 0, 1)
	}
	// Point masses (certain attributes) have exact closed forms and defeat
	// quadrature with their step CDFs — handle both orientations first.
	if px, ok := x.(dist.PointMass); ok {
		if py, ok2 := y.(dist.PointMass); ok2 {
			if math.Abs(px.V-py.V) <= tol {
				return 1
			}
			return 0
		}
		return y.CDF(px.V+tol) - y.CDF(px.V-tol)
	}
	if py, ok := y.(dist.PointMass); ok {
		return x.CDF(py.V+tol) - x.CDF(py.V-tol)
	}
	// The integrand vanishes outside x's mass and wherever the CDF window
	// is flat, i.e. outside y's effective range widened by tol. Clipping to
	// the intersection keeps the overlap bump a sizable fraction of the
	// integration interval, which adaptive subdivision needs to find it
	// (far-apart inputs otherwise sample only zeros and return 0 early).
	lo, hi := dist.EffectiveRange(x, 1e-9)
	ylo, yhi := dist.EffectiveRange(y, 1e-9)
	lo = math.Max(lo, ylo-tol)
	hi = math.Min(hi, yhi+tol)
	if hi <= lo {
		return 0
	}
	p := mathx.Integrate(func(v float64) float64 {
		return x.PDF(v) * (y.CDF(v+tol) - y.CDF(v-tol))
	}, lo, hi, mathx.QuadOptions{AbsTol: 1e-8, RelTol: 1e-6})
	return mathx.Clamp(p, 0, 1)
}

// LocEqualProb is the 2/3-D co-location probability for axis-independent
// locations: the product of per-axis EqualProb values.
func LocEqualProb(xs, ys []dist.Dist, tol float64) float64 {
	if len(xs) != len(ys) {
		panic("core: LocEqualProb dimension mismatch")
	}
	p := 1.0
	for i := range xs {
		p *= EqualProb(xs[i], ys[i], tol)
		if p == 0 {
			return 0
		}
	}
	return p
}

// JoinProb joins two uncertain tuples on spatial co-location of the named
// location attributes: the result tuple carries both sides' attributes
// (right-side names prefixed when clashing), existence = P(l) · P(r) ·
// P(co-located), and merged lineage. Returns nil when the match probability
// falls below minProb.
func JoinProb(l, r *UTuple, locAttrs []string, tol, minProb float64) *UTuple {
	xs := make([]dist.Dist, len(locAttrs))
	ys := make([]dist.Dist, len(locAttrs))
	for i, a := range locAttrs {
		xs[i] = l.Attr(a)
		ys[i] = r.Attr(a)
	}
	match := LocEqualProb(xs, ys, tol)
	exist := l.Exist * r.Exist * match
	if exist < minProb {
		return nil
	}
	names := append([]string(nil), l.Names()...)
	attrs := make([]dist.Dist, len(names))
	for i, n := range names {
		attrs[i] = l.Attr(n)
	}
	ts := l.TS
	if r.TS > ts {
		ts = r.TS
	}
	out := Derive(ts, names, attrs, l, r)
	for _, n := range r.Names() {
		name := n
		if out.HasAttr(name) {
			name = "r_" + name
		}
		out.SetAttr(name, r.Attr(n))
	}
	// Certain keys merge like attributes: the left side's identity wins,
	// right-side clashes are prefixed.
	for k, v := range l.Keys.Each() {
		out.SetKey(k, v)
	}
	for k, v := range r.Keys.Each() {
		if out.HasKey(k) {
			k = "r_" + k
		}
		out.SetKey(k, v)
	}
	out.Exist = exist
	return out
}
