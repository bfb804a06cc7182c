package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/cf"
	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/stream"
)

// This file is the pluggable windowed-aggregate spine: every windowed
// uncertain aggregate — the gated sum, streaming quantiles, probabilistic
// top-k dominating, grouped or not — rides the same layers: incremental
// delta maintenance, Shards(n) partials with a deterministic merge, RunLive,
// checkpoint/restore, and cluster part-streams.
//
// An aggregate supplies three things:
//
//   - An Acc: the incremental accumulator (Add/Remove by handle, Result),
//     fed by the delta-window path. Result depends only on the live
//     contributions and their insertion order.
//   - A Prepare/Finalize pair: the mergeable partial form. Prepare runs the
//     per-tuple heavy work (gating, moment extraction, sketching) where the
//     tuple is — a shard instance, a cluster worker — and Finalize folds the
//     globally ordered contributions into the window's result rows on the
//     merge side. The rescan (recompute) path uses the same pair, so the
//     reference semantics and the sharded plan can never drift apart.
//   - Snapshot support comes for free: prepared contributions serialize
//     through one generic codec (snapshot.go), and the incremental boxes
//     restore by replaying Add over the window residents.

// AggOut is one output row of a windowed aggregate emission. Scalar
// aggregates (sum, quantile) emit one row per group per window; ranking
// aggregates (top-k dominating) emit several, distinguished by Keys.
type AggOut struct {
	// D is the row's result distribution, carried as the aggregate's output
	// attribute.
	D dist.Dist
	// Keys are extra certain keys stamped on the derived tuple (e.g. a
	// top-k row's rank and object id). Empty for scalar aggregates.
	Keys KeySet
}

// Acc is a windowed aggregate's incremental accumulator: handle-addressed
// insertion and withdrawal. Result must depend
// only on the live contributions and their insertion order, and must equal
// the Finalize fold over the same contributions in the same order — the
// equivalence tests pin byte-identical alerts between the two paths.
type Acc interface {
	// Add inserts a contribution — the tuple u weighted by probability p
	// (membership × existence) — and returns its handle. The expensive
	// per-tuple work (gating, moment extraction, sketching) happens here,
	// once.
	Add(u *UTuple, p float64) uint64
	// Remove deletes a live contribution by handle (eviction or
	// dedup-replace). Stale or foreign handles are a no-op.
	Remove(handle uint64)
	// Len is the number of live contributions.
	Len() int
	// Result derives the current output rows, appending to dst[:0] (the
	// caller reuses the slice across emissions).
	Result(dst []AggOut) []AggOut
}

// PartialContrib is one prepared contribution flowing from a shard instance
// (or cluster worker) to the deterministic merge: the carrier tuple, its
// gate probability, the contributing tuple's global arrival sequence, and
// whatever the aggregate precomputed shard-side (a gated distribution for
// sums, sketch points for quantiles and top-k) so the merge fold touches no
// distribution internals it doesn't have to.
type PartialContrib struct {
	Seq uint64
	U   *UTuple
	P   float64
	// D is an optional prepared distribution (the sum's Bernoulli gate,
	// moment-cached for the moment strategies). Nil when the aggregate
	// derives everything from U and Aux.
	D dist.Dist
	// Aux is optional precomputed per-contribution data (quantile sketch
	// points, per-dimension dominance sketches), layout private to the
	// aggregate.
	Aux []float64
}

// UAgg is a pluggable windowed uncertain aggregate: the accumulator factory
// plus the mergeable partial form. Implementations must be safe for
// concurrent Prepare/Finalize calls (shard instances run in parallel); all
// per-window mutable state lives in the Acc or in the spine.
type UAgg interface {
	// Kind names the aggregate ("sum", "quantile", "topk") for diagrams,
	// /statsz rows and snapshot diagnostics.
	Kind() string
	// Attr is the output attribute carrying each row's result distribution.
	Attr() string
	// Heavy reports whether Result/Finalize is expensive enough (an FFT
	// inversion, a grid tabulation, a sampling run) that per-group emission
	// should fan out to the worker pool by default.
	Heavy() bool
	// NewAcc builds a fresh incremental accumulator.
	NewAcc() Acc
	// Finalize folds one group's prepared contributions, in global arrival
	// order, into the window's result rows — the merge-side half of the
	// partial form.
	Finalize(cs []PartialContrib) []AggOut
	// Prepare runs the per-tuple shard-side work for the partial form: it
	// returns the prepared distribution and aux data for one contribution;
	// the spine stamps Seq/U/P.
	Prepare(u *UTuple, p float64) (d dist.Dist, aux []float64)
}

// WindowAggConfig parameterizes the windowed-aggregate box.
type WindowAggConfig struct {
	// Window is the (tumbling/sliding/count) window policy.
	Window stream.WindowSpec
	// DedupKey, when set, keeps only the latest tuple per certain key
	// within each window before aggregation.
	DedupKey string
	// Member assigns tuples to candidate groups with probabilities. Nil
	// runs the aggregate ungrouped: every tuple lands in the single
	// implicit group "" with membership 1 (output tuples still carry the
	// group column, empty, so the alert shape is uniform across aggregates
	// and execution modes).
	Member Membership
	// Agg is the aggregate implementation.
	Agg UAgg
	// Recompute forces the rescan path even for window shapes the
	// incremental path covers.
	Recompute bool
}

// memberOf resolves the membership function: the configured one, or the
// implicit single-group assignment for ungrouped aggregates. Callers only
// read the result, so the single group is one shared slice.
func (cfg *WindowAggConfig) memberOf(u *UTuple) []GroupMass {
	if cfg.Member != nil {
		return cfg.Member(u)
	}
	return ungrouped
}

var ungrouped = []GroupMass{{Group: "", P: 1}}

// NewWindowAggOp builds the generalized windowed aggregate box. Sliding
// time windows take the incremental delta path automatically unless
// cfg.Recompute pins the rescan path; both produce byte-identical output.
// The returned operator implements PartitionedOp (Shards rewrite), exposes
// its config to the cluster planner, and snapshots through the realization.
func NewWindowAggOp(name string, cfg WindowAggConfig) stream.Operator {
	return &windowAggOp{Operator: newWindowAggInner(name, cfg), cfg: cfg}
}

// incremental reports whether the window runs on the delta window: sliding
// time windows do unless Recompute pins the per-window evaluation. The
// unsharded box and the shard/worker partial share this rule, so each
// window shape has exactly one production realization of each.
func (cfg *WindowAggConfig) incremental() bool {
	return cfg.Window.Slide > 0 && !cfg.Recompute
}

// newWindowAggInner builds the unsharded realization: incremental for
// sliding time windows, rescan otherwise.
func newWindowAggInner(name string, cfg WindowAggConfig) stream.Operator {
	if cfg.incremental() {
		return newIncWindowAggOp(name, cfg)
	}
	return stream.NewWindow(name, cfg.Window, windowAggRescan{cfg}.finalize)
}

// windowAggRescan is the per-window evaluation of a windowed aggregate:
// every close runs dedup, membership and Prepare over the window's tuples.
// It realizes tumbling and count windows, and sliding windows under
// Recompute — the reference semantics the delta path is pinned against.
// finalize folds the window in place (the unsharded box); partials ships the
// prepared groups to a merge (a shard or cluster-worker instance), which
// folds them with the same emitFinalized.
type windowAggRescan struct{ cfg WindowAggConfig }

// prepare returns the window's groups in first-contribution order, each
// group's contributions in arrival order. A first pass assigns groups and
// counts contributions, so every group's contributions are then prepared
// into a full-capacity slice of one exactly sized backing array.
func (r windowAggRescan) prepare(window []*stream.Tuple) []finalGroup {
	if len(window) == 0 {
		return nil
	}
	cfg := &r.cfg
	survivors := window
	if cfg.DedupKey != "" {
		survivors = dedupLatestTuples(window, cfg.DedupKey)
	}
	idx := make(map[string]int)
	var groups []finalGroup
	var counts []int
	members := make([][]GroupMass, len(survivors))
	var slots []int32 // group of each contribution, in arrival order
	for k, t := range survivors {
		u := Unwrap(t)
		members[k] = cfg.memberOf(u)
		for _, gm := range members[k] {
			if gm.P*u.Exist <= 0 {
				continue
			}
			i, seen := idx[gm.Group]
			if !seen {
				i = len(groups)
				idx[gm.Group] = i
				groups = append(groups, finalGroup{name: gm.Group})
				counts = append(counts, 0)
			}
			counts[i]++
			slots = append(slots, int32(i))
		}
	}
	backing := make([]PartialContrib, len(slots))
	off := 0
	for i, n := range counts {
		groups[i].cs = backing[off : off : off+n]
		off += n
	}
	next := 0
	for k, t := range survivors {
		u := Unwrap(t)
		for _, gm := range members[k] {
			p := gm.P * u.Exist
			if p <= 0 {
				continue
			}
			d, aux := cfg.Agg.Prepare(u, p)
			g := &groups[slots[next]]
			next++
			g.cs = append(g.cs, PartialContrib{Seq: t.Seq, U: u, P: p, D: d, Aux: aux})
		}
	}
	return groups
}

func (r windowAggRescan) finalize(window []*stream.Tuple, end stream.Time, emit stream.Emit) {
	emitFinalized(r.cfg, r.prepare(window), end, emit)
}

func (r windowAggRescan) partials(window []*stream.Tuple, end stream.Time, emit stream.Emit) {
	for _, g := range r.prepare(window) {
		emit(stream.NewTuple(partialSchema, end, &groupPartial{end: end, group: g.name, contribs: refs(g.cs)}))
	}
}

// refs lists references to the elements of cs, in order.
func refs(cs []PartialContrib) []*PartialContrib {
	out := make([]*PartialContrib, len(cs))
	for i := range cs {
		out[i] = &cs[i]
	}
	return out
}

// finalGroup is one group's contributions for a window fold, in global
// arrival order.
type finalGroup struct {
	name string
	cs   []PartialContrib
}

// emitFinalized folds and emits each group's rows in group-name order
// (sorting groups in place). For heavy aggregates the per-group folds fan
// out across a worker pool; emission stays sequential in name order, so
// output is deterministic regardless of scheduling.
func emitFinalized(cfg WindowAggConfig, groups []finalGroup, end stream.Time, emit stream.Emit) {
	if len(groups) == 0 {
		return
	}
	slices.SortFunc(groups, func(a, b finalGroup) int { return strings.Compare(a.name, b.name) })
	outNames := []string{cfg.Agg.Attr(), "group"}
	outs := make([][]*stream.Tuple, len(groups))
	build := func(i int) {
		g := &groups[i]
		rows := cfg.Agg.Finalize(g.cs)
		outs[i] = assembleRows(g.name, rows, unionLineage(g.cs), end, outNames)
	}
	// A finalize runs once per window and includes the fold, the lineage
	// union and tuple assembly; the pool pays off for the cheap moment
	// strategies too once there are enough groups (it is the serial tail
	// that would otherwise cap shard scaling).
	workers := 1
	if cfg.Agg.Heavy() || len(groups) >= 8 {
		workers = runtime.GOMAXPROCS(0)
	}
	runPool(workers, len(groups), build)
	for _, ts := range outs {
		for _, t := range ts {
			emit(t)
		}
	}
}

// lineageSets recycles the per-group argument list of the lineage union
// across groups, windows and the emission workers.
var lineageSets = sync.Pool{New: func() any { return new([]lineage.Set) }}

// unionLineage is the lineage of one group's output rows: the union over its
// contributing tuples.
func unionLineage(cs []PartialContrib) lineage.Set {
	sp := lineageSets.Get().(*[]lineage.Set)
	sets := (*sp)[:0]
	for i := range cs {
		sets = append(sets, cs[i].U.Lin)
	}
	lin := lineage.UnionAll(sets...)
	clear(sets) // pooled scratch must not pin the window's lineage
	*sp = sets
	lineageSets.Put(sp)
	return lin
}

// assembleRows builds the output carrier tuples for one group's rows: the
// derived uncertain tuple carries the result distribution plus the "group"
// marker attribute, existence 1, the window-union lineage, and the window
// end as its timestamp; the group name rides the carrier's group column.
// This is the exact shape the incremental path's buildGroup emits and the
// pre-refactor merge derived through buildGroupResult — the golden pin and
// the cross-path equivalence tests hold the three together.
func assembleRows(g string, rows []AggOut, lin lineage.Set, end stream.Time, outNames []string) []*stream.Tuple {
	ts := make([]*stream.Tuple, len(rows))
	for i, row := range rows {
		u := &UTuple{
			TS:    end,
			ID:    stream.NextTupleID(),
			names: outNames, // shared; len == cap, so a downstream SetAttr copies
			attrs: []dist.Dist{row.D, dist.PointMass{V: 0}},
			Exist: 1,
			Lin:   lin,
			Keys:  row.Keys,
		}
		t := stream.NewTuple(groupedSchema, end, u, g)
		t.ID = u.ID
		ts[i] = t
	}
	return ts
}

// alog is the insertion-ordered entry store behind the accumulators and the
// partial logs: a grow-at-the-back slice with a dead prefix, handles as
// absolute sequence numbers kept valid across compaction by a base offset —
// O(1) add and remove with no hashing on the per-tuple path.
type alog[E any] struct {
	entries []aentry[E]
	head    int    // first possibly-live entry
	base    uint64 // sequence number of entries[0]
	liveN   int
}

type aentry[E any] struct {
	v    E
	dead bool
}

func (l *alog[E]) add(v E) uint64 {
	seq := l.base + uint64(len(l.entries))
	l.entries = append(l.entries, aentry[E]{v: v})
	l.liveN++
	return seq
}

// remove marks the handle's entry dead and returns it by value. Stale or
// foreign handles return ok == false.
func (l *alog[E]) remove(seq uint64) (E, bool) {
	var zero E
	if seq < l.base {
		return zero, false
	}
	i := int(seq - l.base)
	if i < l.head || i >= len(l.entries) || l.entries[i].dead {
		return zero, false
	}
	e := &l.entries[i]
	out := e.v
	e.dead = true
	e.v = zero
	l.liveN--
	l.compact()
	return out, true
}

func (l *alog[E]) compact() {
	for l.head < len(l.entries) && l.entries[l.head].dead {
		l.head++
	}
	if l.head == len(l.entries) {
		l.base += uint64(len(l.entries))
		l.entries = l.entries[:0]
		l.head = 0
		return
	}
	if l.head > 64 && l.head*2 >= len(l.entries) {
		n := copy(l.entries, l.entries[l.head:])
		for i := n; i < len(l.entries); i++ {
			l.entries[i] = aentry[E]{}
		}
		l.entries = l.entries[:n]
		l.base += uint64(l.head)
		l.head = 0
	}
}

// appendLive appends the live entries to dst in insertion order.
func (l *alog[E]) appendLive(dst []E) []E {
	for i := l.head; i < len(l.entries); i++ {
		if !l.entries[i].dead {
			dst = append(dst, l.entries[i].v)
		}
	}
	return dst
}

// each visits the live entries in insertion order with their handles.
func (l *alog[E]) each(fn func(handle uint64, v *E)) {
	for i := l.head; i < len(l.entries); i++ {
		e := &l.entries[i]
		if e.dead {
			continue
		}
		fn(l.base+uint64(i), &e.v)
	}
}

// --- the gated sum ---

// sumAgg is the gated SUM: each contribution is the attribute Bernoulli-gated
// by its probability, and a window's result is the strategy's sum over the
// gated contributions in arrival order. Prepare builds the gate shard-side
// (for the moment strategies only its moments, via momentDist), Finalize
// folds the prepared gates with the shared Sum, and the accumulator runs the
// same arithmetic over the same contributions in the same order — so the
// incremental, rescan, sharded and clustered plans emit the same bits, and
// the golden pin holds them there.
type sumAgg struct {
	attr  string
	strat Strategy
	opts  AggOptions
}

// NewSumAgg builds the windowed gated-sum aggregate for the spine.
func NewSumAgg(attr string, strat Strategy, opts AggOptions) UAgg {
	return &sumAgg{attr: attr, strat: strat, opts: opts}
}

// momentStrategy reports whether a sum strategy reads only the first two
// cumulants of its inputs: its result is a refold of cached cumulants, not
// an FFT inversion, a fit or a sampling run.
func momentStrategy(s Strategy) bool { return s == CFApprox || s == CLT }

func (a *sumAgg) Kind() string { return "sum" }
func (a *sumAgg) Attr() string { return a.attr }
func (a *sumAgg) Heavy() bool  { return !momentStrategy(a.strat) }
func (a *sumAgg) NewAcc() Acc  { return &sumAcc{agg: a} }

func (a *sumAgg) Prepare(u *UTuple, p float64) (dist.Dist, []float64) {
	if momentStrategy(a.strat) {
		return newMomentDist(u.Attr(a.attr), p), nil
	}
	return BernoulliGate(u.Attr(a.attr), p), nil
}

func (a *sumAgg) Finalize(cs []PartialContrib) []AggOut {
	ds := make([]dist.Dist, len(cs))
	for i := range cs {
		ds[i] = cs[i].D
	}
	return []AggOut{{D: Sum(ds, a.strat, a.opts)}}
}

// sumAcc is the gated sum's accumulator. The moment strategies cache each
// contribution's closed-form gated cumulants at Add (cf.GatedCumulants, bit-
// identical to the gate mixture's moments) and Result refolds them left to
// right — the fold SumMoments runs over the same contributions, hence the
// same bits; a running total would drift from it by ulps under eviction's
// subtraction. Every other strategy caches the BernoulliGate distribution
// and Result pools the live gates into one Sum call per emission: one
// product-CF inversion or fit, or the sampling baselines' seeded draws,
// exactly as the rescan path runs them.
type sumAcc struct {
	agg  *sumAgg
	log  alog[sumEntry]
	pool []dist.Dist // Result scratch for the pooled strategies
}

// sumEntry is one live contribution: its gated cumulants (moment
// strategies) or its gated distribution (every other strategy).
type sumEntry struct {
	c cf.Cumulants
	d dist.Dist
}

func (a *sumAcc) Add(u *UTuple, p float64) uint64 {
	v := u.Attr(a.agg.attr)
	if momentStrategy(a.agg.strat) {
		return a.log.add(sumEntry{c: cf.GatedCumulants(v.Mean(), v.Variance(), p)})
	}
	return a.log.add(sumEntry{d: BernoulliGate(v, p)})
}

func (a *sumAcc) Remove(h uint64) { a.log.remove(h) }
func (a *sumAcc) Len() int        { return a.log.liveN }

func (a *sumAcc) Result(dst []AggOut) []AggOut {
	return append(dst[:0], AggOut{D: a.sum()})
}

func (a *sumAcc) sum() dist.Dist {
	live := a.log.entries[a.log.head:]
	if momentStrategy(a.agg.strat) {
		var total cf.Cumulants
		for i := range live {
			if !live[i].dead {
				total.K1 += live[i].v.c.K1
				total.K2 += live[i].v.c.K2
			}
		}
		return cf.GaussianFromCumulants(total)
	}
	a.pool = a.pool[:0]
	for i := range live {
		if !live[i].dead {
			a.pool = append(a.pool, live[i].v.d)
		}
	}
	return Sum(a.pool, a.agg.strat, a.agg.opts)
}
