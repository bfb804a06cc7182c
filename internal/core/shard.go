package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"repro/internal/cf"
	"repro/internal/dist"
	"repro/internal/lineage"
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
//     do no dedup), stamps it with its arrival sequence, and broadcasts every
//     window close from the replicated window clock, so shard windows open
//     and close exactly like the unsharded window.
//   - Each shard instance does the per-tuple heavy lifting — windowing,
//     dedup, membership evaluation, and the aggregate's Prepare (gating +
//     moment extraction for sums, sketching for quantiles and top-k). A
//     sliding window runs the unsharded path's delta window (incgroup.go)
//     and ships, per close, one slideDelta: the (group, seq) of each
//     contribution that left and the prepared contributions that entered.
//     Tumbling and count windows evaluate each window once anyway; their
//     shards ship the window's per-group contribution lists (groupPartial).
//   - The merge box collects a window's shard output until every shard has
//     forwarded its close punctuation. A delta window updates the live
//     contributions the merge keeps per group — removals first, then the
//     additions merged into global arrival order by sequence stamp — and
//     refolds only the groups that changed; a full-list window merges its
//     groups' lists by sequence stamp and folds them all. Either way each
//     fold is the aggregate's Finalize over a group's contributions in
//     global arrival order — the list the unsharded accumulator holds — so
//     the fold order, the RNG seeding, and therefore the emitted bytes match
//     the unsharded plan.
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
	merge := newWindowAggMerge("merge·"+name, cfg, p)
	if cfg.incremental() {
		merge.link = newShardLink(p)
	}
	shards := make([]stream.Operator, p)
	for i := range shards {
		sname := fmt.Sprintf("%s#%d/%d", name, i, p)
		if merge.link != nil {
			shards[i] = newDeltaPartialOp(sname, cfg, merge.link, i)
		} else {
			shards[i] = NewWindowAggPartialOp(sname, cfg)
		}
	}
	spec := cfg.Window
	plan := stream.ShardPlan{
		Partition: stream.PartitionSpec{Clock: &spec},
		Shards:    shards,
		Merge:     merge,
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
// runs. batches, when positive, bounds the instance's input queue
// (stream.BoundedInputOp).
type aggKindOp struct {
	stream.Operator
	kind    string
	batches int
}

func (o *aggKindOp) AggKind() string   { return o.kind }
func (o *aggKindOp) InputBatches() int { return o.batches }

// NewWindowAggPartialOp builds one cluster-worker instance of a windowed
// aggregate, and the shard instance of a tumbling or count window: an
// externally clocked window that emits, per close punctuation, one
// groupPartial per group with live contributions — the self-contained form
// the part codec ships — and then forwards the close for the merge to
// count. Sliding time windows run on the delta window — dedup, membership
// and Prepare once per tuple — and everything else on the per-window rescan,
// by the same rule the unsharded box uses.
func NewWindowAggPartialOp(name string, cfg WindowAggConfig) stream.Operator {
	var inner stream.Operator
	if cfg.incremental() {
		inner = newIncWindowAggPartialOp(name, newIncWindowAgg(cfg, incFull))
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

// slideDelta is one sliding shard's output for one close: the stamps of the
// contributions withdrawn since its previous close (eviction or dedup
// replacement) — a tuple contributes at most once to a group, so its
// arrival sequence names the contribution there — and the prepared
// contributions that entered, in arrival (Seq) order. Both name their group
// by its slot in groups, the groups the close changed. The merge copies a
// delta out on arrival.
type slideDelta struct {
	groups  []string
	removes []slotSeq
	adds    []slotContrib
}

// slotSeq is one withdrawn contribution.
type slotSeq struct {
	slot int32
	seq  uint64
}

// slotContrib is one added contribution.
type slotContrib struct {
	slot int32
	c    PartialContrib
}

// reset empties the delta for reuse, keeping its storage but nothing it
// pointed at.
func (d *slideDelta) reset() {
	clear(d.groups)
	clear(d.adds)
	d.groups, d.removes, d.adds = d.groups[:0], d.removes[:0], d.adds[:0]
}

// deltaSchema carries slideDelta payloads between shard and merge.
var deltaSchema = stream.NewSchema("__delta")

// momentDist is a moment strategy's prepared contribution: the value v
// gated by Bernoulli(p), with the gated Mean/Variance computed where the
// contribution was built (the shard instance) by cf.GatedCumulants — the
// same float64s BernoulliGate(v, p).Mean()/Variance() give. The cumulant
// fold reads only those, so the gate mixture is never built on the fold
// path; every other method, and the codec, materialises BernoulliGate(v, p)
// on demand and answers exactly as the eager gate would.
type momentDist struct {
	v              dist.Val
	p              float64
	mean, variance float64
}

// newMomentDist gates v by p without building the gate mixture. A moment
// dist travels as a pointer, so a window's or a decoded frame's can be
// carved from one backing array (setMoments, PartCodec.Decode).
func newMomentDist(v dist.Val, p float64) *momentDist {
	m := new(momentDist)
	m.set(v, p)
	return m
}

// set makes m the gate of v by p.
func (m *momentDist) set(v dist.Val, p float64) {
	c := cf.GatedCumulants(v.Mean(), v.Variance(), p)
	*m = momentDist{v: v, p: p, mean: c.K1, variance: c.K2}
}

// gated is the Bernoulli gate mixture this value stands for.
func (m momentDist) gated() dist.Dist { return BernoulliGate(m.v.Dist(), m.p) }

func (m momentDist) Mean() float64              { return m.mean }
func (m momentDist) Variance() float64          { return m.variance }
func (m momentDist) Std() float64               { return m.gated().Std() }
func (m momentDist) PDF(x float64) float64      { return m.gated().PDF(x) }
func (m momentDist) CDF(x float64) float64      { return m.gated().CDF(x) }
func (m momentDist) Quantile(q float64) float64 { return m.gated().Quantile(q) }
func (m momentDist) Sample(g *rng.RNG) float64  { return m.gated().Sample(g) }
func (m momentDist) CF(t float64) complex128    { return m.gated().CF(t) }
func (m momentDist) Support() (lo, hi float64)  { return m.gated().Support() }

// mergeWin accumulates one window's shard output until every shard has
// closed.
type mergeWin struct {
	end    stream.Time
	closes int
	// delta marks a window fed slide deltas: its groups hold changes to
	// the merge's live groups, not whole contribution lists.
	delta  bool
	idx    map[string]int // group name → position in groups
	groups []mergeGroup   // first-arrival order
	slots  []int          // addDelta scratch: a delta's slots → groups
}

// mergeGroup is one group's share of one window. A full-list window keeps
// the contribution list of every partial received for the group, by
// reference, each in arrival (Seq) order; a delta window keeps the stamps
// its shards withdrew and copies of the contributions they added, each
// shard's in Seq order.
type mergeGroup struct {
	name    string
	runs    [][]*PartialContrib
	removes []uint64
	adds    []PartialContrib
}

// group returns the window's entry for a group name, adding it on first
// sight.
func (w *mergeWin) group(name string) *mergeGroup { return &w.groups[w.slot(name)] }

// slot returns the position of a group's entry, adding it on first sight. A
// recycled window's entries are reused with their storage.
func (w *mergeWin) slot(name string) int {
	i, ok := w.idx[name]
	if !ok {
		i = len(w.groups)
		w.idx[name] = i
		if i < cap(w.groups) {
			w.groups = w.groups[:i+1]
			w.groups[i].name = name
		} else {
			w.groups = append(w.groups, mergeGroup{name: name})
		}
	}
	return i
}

// addDelta files a copy of a slide delta under the window's groups.
func (w *mergeWin) addDelta(d *slideDelta) {
	w.delta = true
	w.slots = w.slots[:0]
	for _, name := range d.groups {
		w.slots = append(w.slots, w.slot(name))
	}
	for _, r := range d.removes {
		g := &w.groups[w.slots[r.slot]]
		g.removes = append(g.removes, r.seq)
	}
	for i := range d.adds {
		g := &w.groups[w.slots[d.adds[i].slot]]
		g.adds = append(g.adds, d.adds[i].c)
	}
}

// recycle empties a folded delta window for reuse, keeping its storage but
// nothing it pointed at.
func (w *mergeWin) recycle() {
	w.end, w.closes, w.delta = 0, 0, false
	clear(w.idx)
	for i := range w.groups {
		g := &w.groups[i]
		clear(g.adds)
		*g = mergeGroup{removes: g.removes[:0], adds: g.adds[:0]}
	}
	w.groups = w.groups[:0]
}

// liveGroup is one group's live contributions in a merge fed slide deltas:
// every shard's, in ascending Seq — global arrival order, the order the
// unsharded box's accumulator holds them in — with the lineage multiset and
// the emission cache of the unsharded box's groupState. A group no delta
// touched re-emits its cached rows without a fold.
type liveGroup struct {
	// cs holds the live contributions; a withdrawn one stays as a hole
	// (U == nil, Seq kept for the search) until the group's next fold.
	cs    []PartialContrib
	n     int // live entries in cs
	lins  idMultiset
	dirty bool
	rows  []AggOut
	lin   lineage.Set
	// change is the finalizing window's share for the group, not yet
	// applied.
	change *mergeGroup
}

// apply applies the group's pending change: its withdrawals, then its
// additions in Seq order. Every stamp added in a window exceeds every stamp
// already live (the partitioner stamps in arrival order, and a window's
// closes follow its arrivals), so the sorted additions extend the ascending
// live list.
func (g *liveGroup) apply() {
	wg := g.change
	if wg == nil {
		return
	}
	g.change = nil
	for _, seq := range wg.removes {
		g.withdraw(seq)
	}
	if len(wg.adds) > 0 {
		// Each shard's additions ascend; sorting interleaves them.
		if !slices.IsSortedFunc(wg.adds, bySeq) {
			slices.SortFunc(wg.adds, bySeq)
		}
		start := len(g.cs)
		g.cs = append(g.cs, wg.adds...)
		g.add(g.cs[start:])
	}
}

func bySeq(a, b PartialContrib) int { return cmp.Compare(a.Seq, b.Seq) }

// withdraw removes the live contribution with sequence stamp seq. Unknown
// stamps are tolerated, like a stale Acc.Remove handle.
func (g *liveGroup) withdraw(seq uint64) {
	lo, hi := 0, len(g.cs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.cs[m].Seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(g.cs) || g.cs[lo].Seq != seq || g.cs[lo].U == nil {
		return
	}
	i := lo
	g.lins.RemoveIDs(g.cs[i].U.Lin.IDs())
	g.cs[i] = PartialContrib{Seq: seq}
	g.n--
	g.dirty = true
}

// add appends contributions whose stamps all exceed the live ones'.
func (g *liveGroup) add(cs []PartialContrib) {
	for i := range cs {
		g.lins.AddIDs(cs[i].U.Lin.IDs())
	}
	g.n += len(cs)
	g.dirty = true
}

// reset empties the group for reuse, keeping its storage but nothing it
// pointed at.
func (g *liveGroup) reset() {
	clear(g.cs)
	clear(g.rows)
	*g = liveGroup{cs: g.cs[:0], lins: g.lins.emptied(), rows: g.rows[:0]}
}

// refresh re-derives the cached rows and lineage if the group changed,
// closing the holes first so Finalize sees exactly the live list.
func (g *liveGroup) refresh(agg UAgg) {
	if !g.dirty {
		return
	}
	if g.n != len(g.cs) {
		g.cs = slices.DeleteFunc(g.cs, func(c PartialContrib) bool { return c.U == nil })
	}
	if fa, ok := agg.(finalAppender); ok {
		g.rows = fa.appendFinal(g.rows[:0], g.cs)
	} else {
		g.rows = agg.Finalize(g.cs)
	}
	g.lin = g.lins.Snapshot()
	g.dirty = false
}

// windowAggMerge reunifies shard partials: one window finalizes after its
// close punctuation has arrived from all p shards (per-channel FIFO
// guarantees the shard's output precedes its close). Windows are
// identified by their close *ordinal* per input port — every shard forwards
// the same close sequence in the same order, so "the k-th close on port i"
// names the same window on every port, even when consecutive windows share
// an end timestamp (count windows over duplicate timestamps, where
// end-keyed matching would conflate them under channel interleaving).
// A full-list window merges each group's partial lists by arrival sequence
// and folds the groups in name order with the aggregate's Finalize; a delta
// window updates the live groups and refolds the ones it changed. Both emit
// the unsharded box's bytes.
type windowAggMerge struct {
	name string
	cfg  WindowAggConfig
	p    int

	// closed[i] counts closes received on port i: shard output arriving on
	// the port belongs to window ordinal closed[i].
	closed []int
	wins   map[int]*mergeWin
	next   int // lowest unfinalized window ordinal

	// live is the per-group state slide deltas maintain, and idle holds
	// emptied groups for reuse with their storage. link is set on a sharded
	// sliding plan's merge (see shardLink); a merge without one writes its
	// live groups into its own snapshot.
	live map[string]*liveGroup
	idle []*liveGroup
	link *shardLink

	// buf holds the merged contributions of the full-list window being
	// finalized, reused across windows; spare is the last folded delta
	// window, emptied for the next.
	buf   []PartialContrib
	spare *mergeWin

	outNames []string          // shared schema of emitted tuples: {attr, "group"}
	order    []namedGroup      // delta emission scratch
	outs     [][]*stream.Tuple // delta emission scratch
}

// NewWindowAggMergeOp builds the p-way deterministic merge of a sharded or
// clustered windowed aggregate: port i carries shard/worker i's partials
// and closes.
func NewWindowAggMergeOp(name string, cfg WindowAggConfig, p int) stream.Operator {
	return newWindowAggMerge(name, cfg, p)
}

func newWindowAggMerge(name string, cfg WindowAggConfig, p int) *windowAggMerge {
	return &windowAggMerge{name: name, cfg: cfg, p: p, closed: make([]int, p),
		wins: make(map[int]*mergeWin), live: make(map[string]*liveGroup),
		outNames: []string{cfg.Agg.Attr(), "group"}}
}

// shardLink is what a sharded sliding plan's shards and merge share beside
// the data arrows:
//
//   - The merge's live groups are a function of the shards' window
//     residents, just as the unsharded box's accumulators are of its ring.
//     Each shard's restore replay re-derives the contributions it had
//     shipped and deposits them in restored for the merge to take back, so
//     the merge's snapshot does not write them a second time.
//   - The merge copies a slide delta out on arrival and returns it through
//     free, so shards refill the same storage close after close.
type shardLink struct {
	restored []*slideDelta // port i's replayed contributions, as additions
	free     chan *slideDelta
}

func newShardLink(p int) *shardLink {
	return &shardLink{restored: make([]*slideDelta, p), free: make(chan *slideDelta, (deltaQueue+1)*p)}
}

// deltaQueue bounds the queues of a sliding plan in slides: into a box that
// bounds its input the channel executor ends a batch at every close, so a
// batch holds about one slide of one shard's input or output. The merge takes deltaQueue slide deltas per
// shard, and each shard about deltaQueue slides of input, so a shard that
// outruns the merge or its sibling waits instead of queueing slides of
// prepared contributions — a merge holds every addition of a window its
// faster shards have closed until the slowest closes it too.
const deltaQueue = 8

// take returns an empty slide delta, reusing a returned one when it can.
func (l *shardLink) take() *slideDelta {
	select {
	case d := <-l.free:
		return d
	default:
		return &slideDelta{}
	}
}

// give returns a slide delta the merge has copied out.
func (l *shardLink) give(d *slideDelta) {
	d.reset()
	select {
	case l.free <- d:
	default:
	}
}

func (o *windowAggMerge) Name() string    { return o.name }
func (o *windowAggMerge) AggKind() string { return o.cfg.Agg.Kind() }

// InputBatches implements stream.BoundedInputOp for a sliding plan's merge
// (see deltaQueue).
func (o *windowAggMerge) InputBatches() int {
	if o.link == nil {
		return 0
	}
	return deltaQueue * o.p
}

func (o *windowAggMerge) win(ordinal int) *mergeWin {
	w := o.wins[ordinal]
	if w == nil {
		w = o.spare
		o.spare = nil
		if w == nil {
			w = &mergeWin{idx: make(map[string]int)}
		}
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
	w := o.win(o.closed[port])
	switch v := t.Fields[0].(type) {
	case *groupPartial:
		g := w.group(v.group)
		g.runs = append(g.runs, v.contribs)
	case *slideDelta:
		w.addDelta(v)
		if o.link != nil {
			o.link.give(v)
		}
	}
}

// absorb takes back the live contributions the shards' restore deposited,
// if any, as one delta window of additions.
func (o *windowAggMerge) absorb() {
	if o.link == nil {
		return
	}
	var w *mergeWin
	for i, d := range o.link.restored {
		if d == nil {
			continue
		}
		if w == nil {
			w = &mergeWin{idx: make(map[string]int)}
		}
		w.addDelta(d)
		o.link.restored[i] = nil
	}
	if w == nil {
		return
	}
	o.stageDelta(w)
	for _, g := range o.live {
		g.apply()
	}
}

// finalize emits a completed window and forgets it.
func (o *windowAggMerge) finalize(ordinal int, w *mergeWin, emit stream.Emit) {
	delete(o.wins, ordinal)
	if ordinal >= o.next {
		o.next = ordinal + 1
	}
	o.absorb()
	if w.delta {
		o.stageDelta(w)
		o.emitLive(w.end, emit)
		w.recycle()
		o.spare = w
		return
	}
	o.foldLists(w, emit)
}

// foldLists emits a full-list window through the shared emitFinalized
// fold. Each group's partial lists are merged by sequence stamp into the
// merge's reused buffer — sized up front, so the group slices handed to the
// fold stay valid — which is the one place contributions are copied.
func (o *windowAggMerge) foldLists(w *mergeWin, emit stream.Emit) {
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

// stageDelta hands each of a delta window's groups its change, creating the
// live groups it adds to; emitLive applies them.
func (o *windowAggMerge) stageDelta(w *mergeWin) {
	for i := range w.groups {
		wg := &w.groups[i]
		g := o.live[wg.name]
		if g == nil {
			if len(wg.adds) == 0 {
				continue // withdrawals from a group the merge no longer holds
			}
			if n := len(o.idle); n > 0 {
				g, o.idle = o.idle[n-1], o.idle[:n-1]
			} else {
				g = &liveGroup{}
			}
			o.live[wg.name] = g
		}
		g.change = wg
	}
}

// emitLive applies the window's changes and emits every live group's rows
// in group-name order, refolding the groups that changed. As in the
// unsharded box, the per-group work of heavy aggregates fans out across a
// worker pool, each group touched by one worker, while emission stays
// sequential in name order; groups left empty are dropped afterwards.
func (o *windowAggMerge) emitLive(end stream.Time, emit stream.Emit) {
	o.order = o.order[:0]
	for name, g := range o.live {
		o.order = append(o.order, namedGroup{name, g})
	}
	if len(o.order) == 0 {
		return
	}
	slices.SortFunc(o.order, func(a, b namedGroup) int { return strings.Compare(a.name, b.name) })
	if cap(o.outs) < len(o.order) {
		o.outs = make([][]*stream.Tuple, len(o.order))
	}
	outs := o.outs[:len(o.order)]
	workers := 1
	if o.cfg.Agg.Heavy() {
		workers = runtime.GOMAXPROCS(0)
	}
	runPool(workers, len(o.order), func(i int) {
		g := o.order[i].g
		g.apply()
		if g.n == 0 {
			return
		}
		g.refresh(o.cfg.Agg)
		outs[i] = assembleRows(o.order[i].name, g.rows, g.lin, end, o.outNames)
	})
	for i, ts := range outs {
		for _, t := range ts {
			emit(t)
		}
		outs[i] = nil
		if ng := o.order[i]; ng.g.n == 0 {
			delete(o.live, ng.name)
			ng.g.reset()
			o.idle = append(o.idle, ng.g)
		}
	}
	clear(o.order)
}

// namedGroup is a live group and its name, for emission in name order.
type namedGroup struct {
	name string
	g    *liveGroup
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
