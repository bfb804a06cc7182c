package core

import (
	"fmt"

	"repro/internal/cf"
	"repro/internal/dist"
	"repro/internal/rng"
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
//     tagged with the partitioner's arrival sequence. Sliding windows run
//     the unsharded path's delta window (incgroup.go), so each contribution
//     is prepared once however many slides it lives through; tumbling and
//     count windows evaluate each window once anyway and use the rescan.
//   - The merge box collects partials until every shard has forwarded the
//     window's close punctuation, merges each group's per-shard lists —
//     each already in arrival order — back into global arrival order by
//     sequence stamp, and folds with the aggregate's Finalize — the exact
//     code path the rescan realization uses — so the fold order, the RNG
//     seeding, and therefore the emitted bytes match the unsharded plan.
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

// Shard implements PartitionedOp.
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
// windowed aggregate: an externally clocked window that emits, per close
// punctuation, one groupPartial per group with live contributions and then
// forwards the close for the merge to count. Sliding time windows run on
// the delta window — dedup, membership and Prepare once per tuple — and
// everything else on the per-window rescan, by the same rule the unsharded
// box uses.
func NewWindowAggPartialOp(name string, cfg WindowAggConfig) stream.Operator {
	var inner stream.Operator
	if cfg.incremental() {
		inner = newIncWindowAggPartialOp(name, cfg)
	} else {
		inner = stream.NewExternalWindow(name, cfg.Window, windowAggRescan{cfg}.partials)
	}
	return &aggKindOp{Operator: inner, kind: cfg.Agg.Kind()}
}

// groupPartial is one shard's contribution list for one group of one
// window — the payload flowing from shard instances to the merge. The list
// holds references in arrival (Seq) order; list and contributions are
// immutable once emitted, so the merge and later windows' partials share
// them instead of copying.
type groupPartial struct {
	end      stream.Time
	group    string
	contribs []*PartialContrib
	// agg is the emitting aggregate, read only by the link codec to project
	// carriers (partcodec.go). Nil on decoded partials: they ship whole.
	agg UAgg
}

// partialSchema carries groupPartial payloads between shard and merge.
var partialSchema = stream.NewSchema("__partial")

// momentDist is a moment strategy's prepared contribution: the value v
// gated by Bernoulli(p), with the gated Mean/Variance computed where the
// contribution was built (the shard instance) by cf.GatedCumulants — the
// same float64s BernoulliGate(v, p).Mean()/Variance() give. The cumulant
// fold reads only those, so the gate mixture is never built on the fold
// path; every other method, and the codec, materialises BernoulliGate(v, p)
// on demand and answers exactly as the eager gate would.
type momentDist struct {
	v              dist.Dist
	p              float64
	mean, variance float64
}

// newMomentDist gates v by p without building the gate mixture.
func newMomentDist(v dist.Dist, p float64) momentDist {
	c := cf.GatedCumulants(v.Mean(), v.Variance(), p)
	return momentDist{v: v, p: p, mean: c.K1, variance: c.K2}
}

// gated is the Bernoulli gate mixture this value stands for.
func (m momentDist) gated() dist.Dist { return BernoulliGate(m.v, m.p) }

func (m momentDist) Mean() float64              { return m.mean }
func (m momentDist) Variance() float64          { return m.variance }
func (m momentDist) Std() float64               { return m.gated().Std() }
func (m momentDist) PDF(x float64) float64      { return m.gated().PDF(x) }
func (m momentDist) CDF(x float64) float64      { return m.gated().CDF(x) }
func (m momentDist) Quantile(q float64) float64 { return m.gated().Quantile(q) }
func (m momentDist) Sample(g *rng.RNG) float64  { return m.gated().Sample(g) }
func (m momentDist) CF(t float64) complex128    { return m.gated().CF(t) }
func (m momentDist) Support() (lo, hi float64)  { return m.gated().Support() }

// mergeWin accumulates one window's partials until every shard has closed.
type mergeWin struct {
	end    stream.Time
	closes int
	idx    map[string]int // group name → position in groups
	groups []mergeGroup   // first-arrival order
}

// mergeGroup is one group's partials for one window: the contribution list
// of every partial received for it, by reference. Each list is in arrival
// (Seq) order.
type mergeGroup struct {
	name string
	runs [][]*PartialContrib
}

// group returns the window's entry for a group name, adding it on first
// sight.
func (w *mergeWin) group(name string) *mergeGroup {
	i, ok := w.idx[name]
	if !ok {
		i = len(w.groups)
		w.idx[name] = i
		w.groups = append(w.groups, mergeGroup{name: name})
	}
	return &w.groups[i]
}

// windowAggMerge reunifies shard partials: one window finalizes after its
// close punctuation has arrived from all p shards (per-channel FIFO
// guarantees the shard's partials precede its close). Windows are
// identified by their close *ordinal* per input port — every shard forwards
// the same close sequence in the same order, so "the k-th close on port i"
// names the same window on every port, even when consecutive windows share
// an end timestamp (count windows over duplicate timestamps, where
// end-keyed matching would conflate them under channel interleaving).
// Finalization merges each group's partial lists by arrival sequence and
// folds the groups in name order with the aggregate's Finalize — the exact
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

	// buf holds the merged contributions of the window being finalized,
	// reused across windows.
	buf []PartialContrib
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
		w = &mergeWin{idx: make(map[string]int)}
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
	g := o.win(o.closed[port]).group(gp.group)
	g.runs = append(g.runs, gp.contribs)
}

// finalize emits the completed window through the shared emitFinalized
// fold. Each group's partial lists are merged by sequence stamp into the
// merge's reused buffer — sized up front, so the group slices handed to the
// fold stay valid — which is the one place contributions are copied.
func (o *windowAggMerge) finalize(ordinal int, w *mergeWin, emit stream.Emit) {
	delete(o.wins, ordinal)
	if ordinal >= o.next {
		o.next = ordinal + 1
	}
	total := 0
	for i := range w.groups {
		for _, r := range w.groups[i].runs {
			total += len(r)
		}
	}
	if cap(o.buf) < total {
		o.buf = make([]PartialContrib, 0, total)
	}
	buf, final := o.buf[:0], make([]finalGroup, 0, len(w.groups))
	for i := range w.groups {
		g := &w.groups[i]
		start := len(buf)
		buf = mergeBySeq(buf, g.runs)
		final = append(final, finalGroup{name: g.name, cs: buf[start:len(buf):len(buf)]})
	}
	emitFinalized(o.cfg, final, w.end, emit)
	// Keep the buffer, not what it points at: the window's tuples are
	// garbage once folded.
	clear(buf)
	o.buf = buf[:0]
}

// mergeBySeq appends the sequence-ordered merge of runs — each already in
// Seq order — to dst, consuming the run slices. Sequence stamps are unique
// across runs (a tuple is routed to one shard), so the result is the one
// global arrival order of the group's contributions.
func mergeBySeq(dst []PartialContrib, runs [][]*PartialContrib) []PartialContrib {
	if len(runs) == 1 {
		for _, c := range runs[0] {
			dst = append(dst, *c)
		}
		return dst
	}
	for {
		best := -1
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || r[0].Seq < runs[best][0].Seq) {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, *runs[best][0])
		runs[best] = runs[best][1:]
	}
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
