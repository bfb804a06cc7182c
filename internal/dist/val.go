package dist

import "repro/internal/snap"

// Val is a distribution as a tuple attribute holds it. Almost every reading
// is a Normal or a certain value, and those travel as two floats: N(Mu,
// Sigma²) when Sigma > 0, the point mass at Mu when Sigma == 0. Any other
// family — including a Normal whose Sigma is not positive — rides boxed in
// D, and Mu and Sigma are then unused.
//
// The value form answers every method with the same float64s the family it
// stands for does, so a reader that takes a Val never boxes the common case
// and never changes a bit. ValOf is the one constructor that picks the form;
// Dist boxes a value-form Val back into its family.
type Val struct {
	Mu, Sigma float64
	D         Dist
}

// ValOf returns d in value form when it is a Normal with Sigma > 0 or a
// point mass, and boxed otherwise.
func ValOf(d Dist) Val {
	switch x := d.(type) {
	case Normal:
		if x.Sigma > 0 {
			return Val{Mu: x.Mu, Sigma: x.Sigma}
		}
	case PointMass:
		return Val{Mu: x.V}
	}
	return Val{D: d}
}

// Dist returns the distribution v stands for; the value form is boxed on
// each call, so hot paths read v's methods instead.
func (v Val) Dist() Dist {
	switch {
	case v.D != nil:
		return v.D
	case v.Sigma > 0:
		return Normal{Mu: v.Mu, Sigma: v.Sigma}
	default:
		return PointMass{V: v.Mu}
	}
}

// Mean returns E[X].
func (v Val) Mean() float64 {
	if v.D != nil {
		return v.D.Mean()
	}
	return v.Mu
}

// Variance returns Var[X].
func (v Val) Variance() float64 {
	if v.D != nil {
		return v.D.Variance()
	}
	return v.Sigma * v.Sigma
}

// Std returns √Var[X].
func (v Val) Std() float64 {
	if v.D != nil {
		return v.D.Std()
	}
	return v.Sigma
}

// PDF returns the density at x.
func (v Val) PDF(x float64) float64 {
	switch {
	case v.D != nil:
		return v.D.PDF(x)
	case v.Sigma > 0:
		return Normal{Mu: v.Mu, Sigma: v.Sigma}.PDF(x)
	default:
		return PointMass{V: v.Mu}.PDF(x)
	}
}

// CDF returns P(X <= x).
func (v Val) CDF(x float64) float64 {
	switch {
	case v.D != nil:
		return v.D.CDF(x)
	case v.Sigma > 0:
		return Normal{Mu: v.Mu, Sigma: v.Sigma}.CDF(x)
	default:
		return PointMass{V: v.Mu}.CDF(x)
	}
}

// Quantile returns the p-quantile.
func (v Val) Quantile(p float64) float64 {
	switch {
	case v.D != nil:
		return v.D.Quantile(p)
	case v.Sigma > 0:
		return Normal{Mu: v.Mu, Sigma: v.Sigma}.Quantile(p)
	default:
		return PointMass{V: v.Mu}.Quantile(p)
	}
}

// Support returns the support bounds.
func (v Val) Support() (lo, hi float64) {
	switch {
	case v.D != nil:
		return v.D.Support()
	case v.Sigma > 0:
		return Normal{Mu: v.Mu, Sigma: v.Sigma}.Support()
	default:
		return PointMass{V: v.Mu}.Support()
	}
}

// EncodeVal appends v's snapshot encoding to w: the bytes Encode writes for
// v.Dist(), without boxing the value form.
func EncodeVal(w *snap.Writer, v Val) error {
	if v.D != nil {
		return Encode(w, v.D)
	}
	w.U8(distCodecV1)
	if v.Sigma > 0 {
		w.U8(tagNormal)
		w.F64(v.Mu)
		w.F64(v.Sigma)
	} else {
		w.U8(tagPointMass)
		w.F64(v.Mu)
	}
	return nil
}

// DecodeVal reads one distribution as Decode does and returns it as ValOf
// would, without boxing the value form. On malformed input it records the
// error on r and returns the zero Val.
func DecodeVal(r *snap.Reader) Val {
	if ver := r.U8(); ver != distCodecV1 && r.Err() == nil {
		r.Fail("dist codec version %d (want %d)", ver, distCodecV1)
		return Val{}
	}
	tag := r.U8()
	if r.Err() != nil {
		return Val{}
	}
	switch tag {
	case tagPointMass:
		return Val{Mu: r.F64()}
	case tagNormal:
		mu, sigma := r.F64(), r.F64()
		if sigma > 0 {
			return Val{Mu: mu, Sigma: sigma}
		}
		return Val{D: Normal{Mu: mu, Sigma: sigma}}
	}
	d := decodeTagged(r, tag)
	if r.Err() != nil {
		return Val{}
	}
	return Val{D: d}
}
