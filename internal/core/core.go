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
type UTuple struct {
	TS    stream.Time
	ID    uint64
	names []string
	attrs []dist.Dist
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
	return &UTuple{
		TS:    ts,
		ID:    id,
		names: append([]string(nil), names...),
		attrs: append([]dist.Dist(nil), attrs...),
		Exist: 1,
		Lin:   lineage.NewSet(id),
	}
}

// NewUTupleShared is NewUTuple without the defensive copies: the caller
// guarantees names and keyNames are immutable for the tuple's lifetime
// (typically a decoder's interned schema, shared by every tuple on a
// connection; keyNames sorted and unique) and attrs is owned by the new
// tuple. names must have no spare capacity, so a later SetAttr of a new
// attribute reallocates instead of writing into the shared backing array.
// The key values are copied; a single key — the common shape, a tag id — is
// stored in the tuple's own allocation, so a keyed tuple costs no more
// allocations than a keyless one. The binary ingest path uses this to skip
// the copies and the per-tuple key map.
func NewUTupleShared(ts stream.Time, names []string, attrs []dist.Dist, keyNames []string, keys []int64) *UTuple {
	if len(names) != len(attrs) {
		panic("core: names/attrs length mismatch")
	}
	var u *UTuple
	switch len(keys) {
	case 0:
		u = &UTuple{}
	case 1:
		b := &struct {
			u UTuple
			v [1]int64
		}{v: [1]int64{keys[0]}}
		u = &b.u
		u.Keys = SharedKeys(keyNames, b.v[:])
	default:
		u = &UTuple{Keys: SharedKeys(keyNames, append([]int64(nil), keys...))}
	}
	id := stream.NextTupleID()
	u.TS, u.ID, u.Exist, u.Lin = ts, id, 1, lineage.NewSet(id)
	u.names, u.attrs = names[:len(names):len(names)], attrs
	return u
}

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

// Attr returns the named attribute distribution.
func (u *UTuple) Attr(name string) dist.Dist {
	for i, n := range u.names {
		if n == name {
			return u.attrs[i]
		}
	}
	panic(fmt.Sprintf("core: unknown attribute %q (have %v)", name, u.names))
}

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
			u.attrs[i] = d
			return
		}
	}
	u.names = append(u.names, name)
	u.attrs = append(u.attrs, d)
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

// Clone returns a copy (attribute distributions are immutable by convention
// and shared; so are the key slices, which SetKey copies before writing).
func (u *UTuple) Clone() *UTuple {
	return &UTuple{
		TS:    u.TS,
		ID:    u.ID,
		names: append([]string(nil), u.names...),
		attrs: append([]dist.Dist(nil), u.attrs...),
		Exist: u.Exist,
		Lin:   u.Lin,
		Keys:  u.Keys,
	}
}

// Mean is shorthand for Attr(name).Mean().
func (u *UTuple) Mean(name string) float64 { return u.Attr(name).Mean() }

// String renders the tuple.
func (u *UTuple) String() string {
	s := fmt.Sprintf("U@%d{p=%.3g", u.TS, u.Exist)
	for k, v := range u.Keys.Each() {
		s += fmt.Sprintf(", %s#%d", k, v)
	}
	for i, n := range u.names {
		s += fmt.Sprintf(", %s=%v", n, u.attrs[i])
	}
	return s + "}"
}
