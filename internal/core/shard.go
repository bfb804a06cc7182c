package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/stream"
)

// This file makes the windowed uncertain aggregates data-parallel while
// keeping their output byte-identical to the unsharded plan. The split is a
// partial/final aggregation:
//
//   - The Partition box routes each tuple to one shard by hash of the dedup
//     key (tags never cross shards, so per-key latest-wins dedup stays
//     exact; keyless configs route round-robin, which is exact because they
//     do no dedup) and broadcasts every window close from the replicated
//     window clock, so shard windows open and close exactly like the
//     unsharded window.
//   - Each shard instance does the per-tuple heavy lifting — windowing,
//     dedup, membership evaluation, and the aggregate's Prepare (gating +
//     moment extraction for sums, sketching for quantiles and top-k) — and
//     emits, per window close, its per-group prepared contribution lists
//     tagged with the partitioner's arrival sequence.
//   - The merge box collects partials until every shard has forwarded the
//     window's close punctuation, restores each group's global contribution
//     order by sequence stamp, and folds with the aggregate's Finalize —
//     the exact code path the rescan realization uses — so the fold order,
//     the RNG seeding, and therefore the emitted bytes match the unsharded
//     plan.
//
// Groups are not used for routing because membership is probabilistic: one
// tuple belongs to several candidate groups, and evaluating membership in
// the single-threaded partitioner would serialize the very work sharding is
// meant to spread.

// PartitionedOp is implemented by operators that can execute as P parallel
// shard instances behind a stream.Partition / merge pair. The plan's merge
// must reproduce the unsharded operator's output bytes and order.
type PartitionedOp interface {
	stream.Operator
	// Shard returns the p-way sharded realization of this operator.
	Shard(p int) stream.ShardPlan
}

// windowAggOp is the windowed-aggregate box handle: it delegates streaming
// execution to the unsharded realization (rescan or incremental, per
// config) and exposes the sharded realization to the query compiler and the
// configuration to the cluster planner.
type windowAggOp struct {
	stream.Operator
	cfg WindowAggConfig
}

// Shard implements PartitionedOp. Shard instances always use the rescan
// (per-window re-evaluation) form regardless of the incremental
// configuration: the incremental path's accumulators produce byte-identical
// output to the rescan path (pinned by the equivalence tests), so the
// sharded plan is equivalent to both. The rescan is not cheap: every slide
// re-runs dedup, membership and Prepare over the shard's whole window, so at
// Range/Slide = 5 each tuple pays them five times — ≈10 % of streamd's CPU
// under the q3_slide_ckpt benchmark workload (PR 12 profile). ROADMAP
// "Collapse the parallel paths" removes it by driving shard partials from
// the delta window.
func (o *windowAggOp) Shard(p int) stream.ShardPlan {
	cfg := o.cfg
	name := o.Name()
	shards := make([]stream.Operator, p)
	for i := range shards {
		shards[i] = NewWindowAggPartialOp(fmt.Sprintf("%s#%d/%d", name, i, p), cfg)
	}
	spec := cfg.Window
	plan := stream.ShardPlan{
		Partition: stream.PartitionSpec{Clock: &spec},
		Shards:    shards,
		Merge:     NewWindowAggMergeOp("merge·"+name, cfg, p),
	}
	if key := cfg.DedupKey; key != "" {
		plan.Partition.Route = func(t *stream.Tuple) (int, bool) {
			u := Unwrap(t)
			if !u.HasKey(key) {
				return 0, false // keyless: deterministic round-robin fallback
			}
			return stream.ShardOfKey(u.Key(key), p), true
		}
	}
	return plan
}

// WindowAggConfig exposes the aggregate's configuration to the cluster
// planner (internal/uop.Cluster), which splits the box at the same
// partial/merge boundary Shard uses — partials on remote workers, the
// deterministic merge on the router.
func (o *windowAggOp) WindowAggConfig() WindowAggConfig { return o.cfg }

// AggKind reports the aggregate kind ("sum", "quantile", "topk") for
// monitoring rows (/statsz).
func (o *windowAggOp) AggKind() string { return o.cfg.Agg.Kind() }

// aggKindOp tags the partial and merge realizations with their aggregate
// kind, so a cluster worker's /statsz box rows can name the operator it
// runs.
type aggKindOp struct {
	stream.Operator
	kind string
}

func (o *aggKindOp) AggKind() string { return o.kind }

// NewWindowAggPartialOp builds one shard (or cluster-worker) instance of a
// windowed aggregate: an externally clocked window whose close handler runs
// dedup + membership + Prepare over its slice of the window and emits
// per-group partials plus the forwarded close punctuations the merge
// counts.
func NewWindowAggPartialOp(name string, cfg WindowAggConfig) stream.Operator {
	inner := stream.NewExternalWindow(name, cfg.Window, func(window []*stream.Tuple, end stream.Time, emit stream.Emit) {
		if len(window) == 0 {
			return
		}
		survivors := window
		if cfg.DedupKey != "" {
			survivors = dedupLatestTuples(window, cfg.DedupKey)
		}
		groups := make(map[string]*groupPartial)
		var order []*groupPartial
		for _, t := range survivors {
			u := Unwrap(t)
			for _, gm := range cfg.memberOf(u) {
				p := gm.P * u.Exist
				if p <= 0 {
					continue
				}
				d, aux := cfg.Agg.Prepare(u, p)
				gp := groups[gm.Group]
				if gp == nil {
					gp = &groupPartial{end: end, group: gm.Group}
					groups[gm.Group] = gp
					order = append(order, gp)
				}
				gp.contribs = append(gp.contribs, PartialContrib{Seq: t.Seq, U: u, P: p, D: d, Aux: aux})
			}
		}
		for _, gp := range order {
			emit(stream.NewTuple(partialSchema, end, gp))
		}
	})
	return &aggKindOp{Operator: inner, kind: cfg.Agg.Kind()}
}

// groupPartial is one shard's contribution list for one group of one
// window — the payload flowing from shard instances to the merge.
type groupPartial struct {
	end      stream.Time
	group    string
	contribs []PartialContrib
}

// partialSchema carries groupPartial payloads between shard and merge.
var partialSchema = stream.NewSchema("__partial")

// momentDist caches Mean/Variance computed where the contribution was built
// (the shard instance), so the merge's cumulant fold for the moment
// strategies touches no distribution internals — the values are the same
// float64s the unsharded fold would compute, just computed in parallel.
type momentDist struct {
	dist.Dist
	mean, variance float64
}

func (m momentDist) Mean() float64     { return m.mean }
func (m momentDist) Variance() float64 { return m.variance }

// dedupLatestTuples is dedupLatest over carrier tuples (the sequence stamp
// lives on the stream.Tuple); it shares the dedupLatestBy implementation,
// so the sharded plan's dedup is the unsharded plan's dedup by
// construction. Within a shard the result equals the unsharded dedup
// restricted to the shard's keys, because the partitioner routes all of a
// key's tuples to one shard.
func dedupLatestTuples(window []*stream.Tuple, key string) []*stream.Tuple {
	return dedupLatestBy(window, key, Unwrap)
}

// mergeWin accumulates one window's partials until every shard has closed.
type mergeWin struct {
	end    stream.Time
	closes int
	groups map[string][]PartialContrib
	order  []string
}

// windowAggMerge reunifies shard partials: one window finalizes after its
// close punctuation has arrived from all p shards (per-channel FIFO
// guarantees the shard's partials precede its close). Windows are
// identified by their close *ordinal* per input port — every shard forwards
// the same close sequence in the same order, so "the k-th close on port i"
// names the same window on every port, even when consecutive windows share
// an end timestamp (count windows over duplicate timestamps, where
// end-keyed matching would conflate them under channel interleaving).
// Finalization sorts groups by name and each group's contributions by
// arrival sequence, then folds with the aggregate's Finalize — the exact
// unsharded emission.
type windowAggMerge struct {
	name string
	cfg  WindowAggConfig
	p    int

	// closed[i] counts closes received on port i: partials arriving on the
	// port belong to window ordinal closed[i].
	closed []int
	wins   map[int]*mergeWin
	next   int // lowest unfinalized window ordinal
}

// NewWindowAggMergeOp builds the p-way deterministic merge of a sharded or
// clustered windowed aggregate: port i carries shard/worker i's partials
// and closes.
func NewWindowAggMergeOp(name string, cfg WindowAggConfig, p int) stream.Operator {
	return &windowAggMerge{name: name, cfg: cfg, p: p, closed: make([]int, p), wins: make(map[int]*mergeWin)}
}

func (o *windowAggMerge) Name() string    { return o.name }
func (o *windowAggMerge) AggKind() string { return o.cfg.Agg.Kind() }

func (o *windowAggMerge) win(ordinal int) *mergeWin {
	w := o.wins[ordinal]
	if w == nil {
		w = &mergeWin{groups: make(map[string][]PartialContrib)}
		o.wins[ordinal] = w
	}
	return w
}

func (o *windowAggMerge) Process(port int, t *stream.Tuple, emit stream.Emit) {
	if port < 0 || port >= o.p {
		panic(fmt.Sprintf("core: window-agg merge has %d ports, got %d", o.p, port))
	}
	if end, ok := stream.WindowCloseOf(t); ok {
		ordinal := o.closed[port]
		o.closed[port]++
		w := o.win(ordinal)
		w.end = end
		w.closes++
		if w.closes == o.p {
			o.finalize(ordinal, w, emit)
		}
		return
	}
	if stream.IsControl(t) {
		return // punctuations end their envelope here
	}
	gp := t.Get("__partial").(*groupPartial)
	w := o.win(o.closed[port])
	if _, seen := w.groups[gp.group]; !seen {
		w.order = append(w.order, gp.group)
	}
	w.groups[gp.group] = append(w.groups[gp.group], gp.contribs...)
}

// finalize emits the completed window through the shared emitFinalized
// fold: groups in name order, each group's contributions re-sorted into
// global arrival order.
func (o *windowAggMerge) finalize(ordinal int, w *mergeWin, emit stream.Emit) {
	delete(o.wins, ordinal)
	if ordinal >= o.next {
		o.next = ordinal + 1
	}
	emitFinalized(o.cfg, w.order, w.groups, w.end, true, emit)
}

// Flush finalizes any windows still pending, in ordinal order — defensive:
// the partitioner's Flush broadcasts the final closes, so under both
// executors every window completes before the merge flushes.
func (o *windowAggMerge) Flush(emit stream.Emit) {
	for len(o.wins) > 0 {
		w := o.wins[o.next]
		if w == nil {
			// No partials and no closes for this ordinal: skip forward.
			ordinal, found := -1, false
			for k := range o.wins {
				if !found || k < ordinal {
					ordinal, found = k, true
				}
			}
			o.next = ordinal
			w = o.wins[ordinal]
		}
		o.finalize(o.next, w, emit)
	}
}
