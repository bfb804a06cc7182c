package core

import (
	"repro/internal/dist"
)

// SelectGreater applies the uncertain predicate attr > threshold: the
// surviving tuple's existence is scaled by P(attr > threshold) and the
// attribute is replaced by its truncated conditional distribution (§5: the
// full conditional is kept so downstream result distributions stay exact,
// e.g. Q2's "T.temp > 60 ℃"). Tuples whose survival probability falls below
// minProb are dropped (nil).
func SelectGreater(u *UTuple, attr string, threshold, minProb float64) *UTuple {
	v := u.Val(attr)
	p := 1 - v.CDF(threshold)
	if p*u.Exist < minProb {
		return nil
	}
	out := u.Clone()
	out.Exist = u.Exist * p
	if p < 1 {
		_, hi := v.Support()
		if hi > threshold {
			out.SetAttr(attr, dist.NewTruncated(v.Dist(), threshold, hi))
		}
	}
	return out
}

// SelectLess applies attr < threshold symmetrically.
func SelectLess(u *UTuple, attr string, threshold, minProb float64) *UTuple {
	v := u.Val(attr)
	p := v.CDF(threshold)
	if p*u.Exist < minProb {
		return nil
	}
	out := u.Clone()
	out.Exist = u.Exist * p
	if p < 1 {
		lo, _ := v.Support()
		if lo < threshold {
			out.SetAttr(attr, dist.NewTruncated(v.Dist(), lo, threshold))
		}
	}
	return out
}
