// Package core is the paper's primary contribution: relational processing of
// tuple streams under uncertainty (§3, §5). Tuples carry full probability
// distributions per uncertain attribute (continuous random variables —
// §1's "first-class citizen" treatment), an existence probability accrued by
// probabilistic selections and joins, and lineage linking each intermediate
// tuple to the base tuples that produced it.
//
// The operators:
//
//   - Selection over uncertain attributes (SelectGreater etc.) truncates the
//     attribute distribution and scales tuple existence by the predicate
//     probability.
//   - Aggregation (Sum / SumTuples / Avg / Max / Min / Count) derives the
//     full result distribution with a pluggable strategy: exact
//     characteristic-function inversion (single integral, §5.1), CF
//     approximation (cumulant-matched Gaussian — Table 2's winner), the
//     histogram-sampling baseline of Ge & Zdonik [25], plain Monte Carlo,
//     the n−1-integral pairwise convolution of Cheng et al. [9], the Central
//     Limit Theorem, and an MA-aware CLT for correlated (time-series)
//     inputs.
//   - Join (EqualProb / LocEqualProb / JoinProb) computes match
//     probabilities between uncertain attributes — Q2's loc_equals.
//   - Uncertain GROUP BY (GroupSum) spreads each tuple over candidate
//     groups by membership probability and sums Bernoulli-gated
//     contributions exactly through their closed-form CFs — Q1's shape.
//   - The multivariate delta method (Delta) approximates distributions of
//     smooth functions of uncertain inputs (§5.2 "complex functions").
//   - The lineage-aware final operator (FinalSum) splits a window into
//     independent and correlated groups via lineage overlap and uses the
//     fast path only where it is sound (§5.2 "lineage").
package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/stream"
)

// UTuple is an uncertain tuple: named attribute distributions plus the
// uncertainty bookkeeping the architecture of §3 calls for.
//
// An attribute that is a Normal or a point mass — almost every reading — is
// held by value, as its (μ, σ) pair in vals; only another family is boxed,
// in dists, which stays nil until a tuple holds one. vals holds no
// pointers, so the collector never scans it. Readers take attributes as
// dist.Val (Val), which boxes nothing.
type UTuple struct {
	TS    stream.Time
	ID    uint64
	names []string
	vals  []gauss
	dists []dist.Dist // nil, or per attribute: non-nil where it is boxed
	Exist float64     // P(tuple exists); 1.0 until a probabilistic op reduces it
	Lin   lineage.Set // base tuples this tuple derives from
	// Keys are certain identity-valued attributes (tag ids, sensor ids):
	// exact integers that must never round-trip through a float64 point
	// mass. Selections and clones carry them along; joins merge them
	// explicitly (left side wins on clashes).
	Keys KeySet
}

// NewUTuple builds a base tuple with existence 1 and its own ID as lineage.
func NewUTuple(ts stream.Time, names []string, attrs []dist.Dist) *UTuple {
	if len(names) != len(attrs) {
		panic("core: names/attrs length mismatch")
	}
	id := stream.NextTupleID()
	u := &UTuple{
		TS:    ts,
		ID:    id,
		names: append([]string(nil), names...),
		Exist: 1,
		Lin:   lineage.NewSet(id),
	}
	u.vals = make([]gauss, len(attrs))
	for i, d := range attrs {
		u.put(i, d)
	}
	return u
}

// NewUTupleShared builds a base tuple without defensive copies, in two
// allocations — the tuple, with a single key (the common shape, a tag id)
// and its lineage id, and its exact-size attribute slots — so with the
// carrier Wrap adds, an ingested tuple costs three. The caller guarantees
// names and keyNames are immutable for the tuple's lifetime (typically a
// decoder's interned schema, shared by every tuple on a connection;
// keyNames sorted and unique). names must have no spare capacity, so a
// later SetAttr of a new attribute reallocates instead of writing into the
// shared backing array. vals are the attributes as ValOf gives them (D nil:
// a Normal with Sigma > 0, a point mass with Sigma == 0; else boxed in D);
// they and the key values are copied.
func NewUTupleShared(ts stream.Time, names []string, vals []dist.Val, keyNames []string, keys []int64) *UTuple {
	if len(names) != len(vals) {
		panic("core: names/attrs length mismatch")
	}
	id := stream.NextTupleID()
	b := &struct {
		u   UTuple
		k   [1]int64
		lin [1]uint64
	}{lin: [1]uint64{id}}
	u := &b.u
	switch len(keys) {
	case 0:
	case 1:
		b.k[0] = keys[0]
		u.Keys = SharedKeys(keyNames, b.k[:])
	default:
		u.Keys = SharedKeys(keyNames, append([]int64(nil), keys...))
	}
	u.Lin, _ = lineage.Adopt(b.lin[:]) // one id is always in order
	u.TS, u.ID, u.Exist = ts, id, 1
	u.names = names[:len(names):len(names)]
	u.vals = make([]gauss, len(vals))
	for i, v := range vals {
		if v.D == nil && !(v.Sigma >= 0) {
			panic(fmt.Sprintf("core: attribute %q has σ %v", names[i], v.Sigma))
		}
		v.Sigma += 0 // σ = −0 is the point mass
		u.setVal(i, v)
	}
	return u
}

// gauss is an attribute held by value: N(mu, sigma²) when sigma > 0, the
// point mass at mu when sigma == 0 (+0 only).
type gauss struct{ mu, sigma float64 }

// Derive builds a tuple produced by an operator from the given parents: it
// gets a fresh ID, the union of parent lineage, and the product of parent
// existence probabilities (§3: output tuples carry lineage so the final
// operator can reconstruct correlations).
func Derive(ts stream.Time, names []string, attrs []dist.Dist, parents ...*UTuple) *UTuple {
	u := NewUTuple(ts, names, attrs)
	if len(parents) == 0 {
		return u
	}
	// One k-way union instead of a pairwise fold: windowed aggregates derive
	// from every window tuple, and the fold's intermediate copies made each
	// emission O(k²) in the group size.
	sets := make([]lineage.Set, len(parents))
	exist := 1.0
	for i, p := range parents {
		sets[i] = p.Lin
		exist *= p.Exist
	}
	u.Lin = lineage.UnionAll(sets...)
	u.Exist = exist
	return u
}

// Names returns the attribute names.
func (u *UTuple) Names() []string { return u.names }

// attrIndex returns the position of the named attribute; wiring errors fail
// loudly.
func (u *UTuple) attrIndex(name string) int {
	for i, n := range u.names {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("core: unknown attribute %q (have %v)", name, u.names))
}

// val returns attribute i as a dist.Val: the value form, or the boxed
// distribution.
func (u *UTuple) val(i int) dist.Val {
	if u.dists != nil && u.dists[i] != nil {
		return dist.Val{D: u.dists[i]}
	}
	return dist.Val{Mu: u.vals[i].mu, Sigma: u.vals[i].sigma}
}

// put stores d as attribute i, by value when ValOf allows.
func (u *UTuple) put(i int, d dist.Dist) {
	if d == nil {
		panic(fmt.Sprintf("core: nil distribution for attribute %q", u.names[i]))
	}
	u.setVal(i, dist.ValOf(d))
}

// setVal stores v as attribute i: in its slot when v is in value form,
// else boxed.
func (u *UTuple) setVal(i int, v dist.Val) {
	if v.D == nil {
		u.vals[i] = gauss{mu: v.Mu, sigma: v.Sigma}
		if u.dists != nil {
			u.dists[i] = nil
		}
		return
	}
	u.vals[i] = gauss{}
	if u.dists == nil {
		u.dists = make([]dist.Dist, len(u.vals))
	}
	u.dists[i] = v.D
}

// Attr returns the named attribute distribution. An attribute held by value
// is boxed on every call; per-tuple readers take Val instead.
func (u *UTuple) Attr(name string) dist.Dist { return u.val(u.attrIndex(name)).Dist() }

// Val returns the named attribute as a dist.Val, boxing nothing.
func (u *UTuple) Val(name string) dist.Val { return u.val(u.attrIndex(name)) }

// HasAttr reports whether the tuple carries the attribute.
func (u *UTuple) HasAttr(name string) bool {
	for _, n := range u.names {
		if n == name {
			return true
		}
	}
	return false
}

// SetAttr replaces or adds an attribute distribution (operators use this on
// their own derived tuples, never on inputs).
func (u *UTuple) SetAttr(name string, d dist.Dist) {
	for i, n := range u.names {
		if n == name {
			u.put(i, d)
			return
		}
	}
	u.names = append(u.names, name)
	u.vals = append(u.vals, gauss{})
	if u.dists != nil {
		u.dists = append(u.dists, nil)
	}
	u.put(len(u.vals)-1, d)
}

// SetKey attaches a certain integer-valued key (e.g. a tag id). The key
// slices are copied first: they may alias a decoder's shared schema table.
func (u *UTuple) SetKey(name string, v int64) { u.Keys.Set(name, v) }

// Key returns the named certain key; wiring errors fail loudly.
func (u *UTuple) Key(name string) int64 {
	v, ok := u.Keys.Get(name)
	if !ok {
		panic(fmt.Sprintf("core: unknown key %q (have %v)", name, u.Keys.names))
	}
	return v
}

// HasKey reports whether the tuple carries the certain key.
func (u *UTuple) HasKey(name string) bool {
	_, ok := u.Keys.Get(name)
	return ok
}

// Clone returns a copy (boxed attribute distributions are immutable by
// convention and shared; so are the key slices, which SetKey copies before
// writing).
func (u *UTuple) Clone() *UTuple {
	c := &UTuple{
		TS:    u.TS,
		ID:    u.ID,
		names: append([]string(nil), u.names...),
		vals:  append([]gauss(nil), u.vals...),
		Exist: u.Exist,
		Lin:   u.Lin,
		Keys:  u.Keys,
	}
	if u.dists != nil {
		c.dists = append([]dist.Dist(nil), u.dists...)
	}
	return c
}

// Mean is shorthand for Val(name).Mean().
func (u *UTuple) Mean(name string) float64 { return u.Val(name).Mean() }

// String renders the tuple.
func (u *UTuple) String() string {
	s := fmt.Sprintf("U@%d{p=%.3g", u.TS, u.Exist)
	for k, v := range u.Keys.Each() {
		s += fmt.Sprintf(", %s#%d", k, v)
	}
	for i, n := range u.names {
		s += fmt.Sprintf(", %s=%v", n, u.val(i).Dist())
	}
	return s + "}"
}
