package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/lineage"
	"repro/internal/stream"
)

// This file is the incremental sliding-window aggregation path: instead of
// re-scanning the window buffer, rebuilding the group map, re-evaluating
// membership and re-running the aggregate's per-tuple work on every slide
// (O(n·R/s) work per tuple for range R and slide s), the boxes below
// consume per-slide deltas from stream.NewDeltaWindow and maintain
// per-group accumulators — membership, gating/sketching, and lineage
// insertion happen exactly once per tuple (Acc.Add), and each emission
// touches only cached state: an accumulator Result for groups that changed,
// a cache hit for groups that did not. The rescan realization remains as
// the reference semantics and the realization of window shapes the delta
// path does not cover; equivalence tests pin byte-identical alerts between
// the two.
//
// The same box is the sliding-window partial of a sharded or clustered plan.
// Its admission, dedup, eviction and replay-restore code is shared with the
// unsharded box, so a partial's dedup winners are the unsharded path's by
// construction, and each surviving contribution runs the aggregate's Prepare
// once, stamped with the carrier's arrival sequence. What a close ships
// depends on the consumer:
//
//   - An in-process shard (Shard) ships one slideDelta per close: the
//     (group, seq) of every contribution withdrawn since the previous close,
//     then the prepared contributions that entered, in arrival order. The
//     merge (shard.go) keeps each group's live contributions itself, so a
//     contribution crosses to the merge once and leaves it once.
//   - A cluster worker (NewWindowAggPartialOp) ships, per close, each live
//     group's whole contribution log as a groupPartial, the self-contained
//     form the part codec carries between processes.

// The per-tuple bookkeeping is deliberately map-free on the hot path: a
// tuple's contributions are recorded in a FIFO deque aligned with the
// window ring (evictions pop the front), contribution refs hold the group
// state pointer and an O(1) accumulator handle, and only keyed dedup
// consults a map (key → record). The incremental path has to win against a
// recompute whose marginal cost per slide is just a few map appends and a
// mixture gate — every hash lookup here is a real fraction of that budget.

// contribRef locates one contribution: the group state it landed in and the
// accumulator handle to withdraw it with.
type contribRef struct {
	st     *groupState
	handle uint64
}

// tupleRec tracks one window-resident tuple's contributions. Records are
// created for every arrival — including dedup losers and no-membership
// tuples, which hold no refs — so the record deque stays aligned one-to-one
// with the stream window ring and evictions pop the front without a lookup.
type tupleRec struct {
	tupID  uint64
	seq    uint64 // the carrier's arrival sequence (partial mode stamps it)
	u      *UTuple
	key    int64
	hasKey bool
	lost   bool // superseded by a newer same-key reading; never contributes
	nref   int32
	refs   [6]contribRef
	spill  []contribRef // overflow beyond the inline refs (wide memberships)
}

func (r *tupleRec) addRef(ref contribRef) {
	if int(r.nref) < len(r.refs) {
		r.refs[r.nref] = ref
		r.nref++
		return
	}
	r.spill = append(r.spill, ref)
	r.nref++
}

// groupState is one group's accumulator plus incrementally-maintained
// lineage and an emission cache: a group untouched since its last emission
// reuses the cached result rows and lineage set (for CFInvert that skips a
// whole FFT inversion) — in slide-heavy configurations many groups are
// unchanged between consecutive slides. In the partial modes acc and lins
// are unused and n counts the live contributions; the full-list partial
// also keeps them in parts, and in sent the list last shipped to the merge,
// which is immutable once shipped.
type groupState struct {
	acc   Acc
	lins  idMultiset
	dirty bool
	rows  []AggOut
	lin   lineage.Set

	name  string
	n     int
	parts alog[*PartialContrib]
	sent  []*PartialContrib
	// slot is the group's slot in the delta partial's open slideDelta,
	// valid while gen is the box's.
	slot int32
	gen  uint64
}

// live is the group's live contribution count.
func (st *groupState) live() int {
	if st.acc == nil {
		return st.n
	}
	return st.acc.Len()
}

// refresh re-derives the cached result rows and lineage if the group
// changed.
func (st *groupState) refresh() {
	if st.dirty || st.rows == nil {
		st.rows = st.acc.Result(st.rows)
		st.lin = st.lins.Snapshot()
		st.dirty = false
	}
}

// incWindowAgg is the incremental windowed-aggregate box state (the
// probabilistic GROUP BY spine; ungrouped aggregates run with the single
// implicit group "").
type incWindowAgg struct {
	cfg  WindowAggConfig
	mode incMode

	states map[string]*groupState

	// recs is the FIFO record deque mirroring the window ring; recBase is
	// the absolute sequence number of recs[0] (record positions survive
	// compaction), recHead the first unpopped record.
	recs    []tupleRec
	recHead int
	recBase uint64

	byKey map[int64]uint64 // dedup key value → live winner record seq

	// recent is a tiny direct cache over states: consecutive tuples come
	// from the same reader event and land in the same handful of cells, so
	// most group lookups hit here instead of hashing the name.
	recent [4]struct {
		name string
		st   *groupState
	}
	recentNext int

	chunk []PartialContrib // full-list partial: contribution storage (newContrib)
	delta *slideDelta      // delta partial: the close being assembled
	gen   uint64           // delta partial: closes shipped, plus one
	// touched are the groups the delta partial's open close changed.
	touched []*groupState
	// link and port connect a delta partial to its merge (shardLink).
	link *shardLink
	port int

	outNames []string          // shared schema of emitted tuples: {attr, "group"}
	names    []string          // emission scratch
	outs     [][]*stream.Tuple // emission scratch
}

// incMode selects what the box emits per slide.
type incMode uint8

const (
	// incRows is the unsharded box: accumulators in, result rows out.
	incRows incMode = iota
	// incDelta is an in-process shard: per close, one slideDelta.
	incDelta
	// incFull is a cluster worker: per close, one groupPartial per live
	// group carrying its whole contribution log.
	incFull
)

// groupFor resolves a group name to its state, creating it on first use.
func (b *incWindowAgg) groupFor(name string) *groupState {
	for i := range b.recent {
		if b.recent[i].st != nil && b.recent[i].name == name {
			return b.recent[i].st
		}
	}
	st := b.states[name]
	if st == nil {
		st = &groupState{name: name}
		if b.mode == incRows {
			st.acc = b.cfg.Agg.NewAcc()
		}
		b.states[name] = st
	}
	b.recent[b.recentNext] = struct {
		name string
		st   *groupState
	}{name, st}
	b.recentNext = (b.recentNext + 1) % len(b.recent)
	return st
}

// newIncWindowAggOp builds the delta-driven windowed aggregate box. The
// window spec must be a sliding time window (the builder falls back to the
// rescan box otherwise).
func newIncWindowAggOp(name string, cfg WindowAggConfig) stream.Operator {
	b := newIncWindowAgg(cfg, incRows)
	return stream.NewDeltaWindowState(name, cfg.Window, b.onSlide, b)
}

// newIncWindowAggPartialOp runs the partial-mode box b as the delta-driven
// partial of a sliding window: externally clocked by the partitioner's close
// punctuations, which it forwards to the merge after each close's output.
func newIncWindowAggPartialOp(name string, b *incWindowAgg) stream.Operator {
	return stream.NewExternalDeltaWindowState(name, b.cfg.Window, b.onSlide, b)
}

// newDeltaPartialOp builds a sliding plan's shard instance: a delta partial
// shipping slide deltas to merge port port through link.
func newDeltaPartialOp(name string, cfg WindowAggConfig, link *shardLink, port int) stream.Operator {
	b := newIncWindowAgg(cfg, incDelta)
	b.link, b.port = link, port
	b.delta, b.gen = link.take(), 1
	// A close ends its batch, so a slide's input fills at least one batch.
	return &aggKindOp{Operator: newIncWindowAggPartialOp(name, b), kind: cfg.Agg.Kind(), batches: 2 * deltaQueue}
}

func newIncWindowAgg(cfg WindowAggConfig, mode incMode) *incWindowAgg {
	b := &incWindowAgg{
		cfg:      cfg,
		mode:     mode,
		states:   make(map[string]*groupState),
		outNames: []string{cfg.Agg.Attr(), "group"},
	}
	if cfg.DedupKey != "" {
		// Pre-size: the key population is the live object set, and growing
		// a map through its doubling stages re-hashes every resident key.
		b.byKey = make(map[int64]uint64, 1024)
	}
	return b
}

func (b *incWindowAgg) onSlide(added, evicted []*stream.Tuple, end stream.Time, emit stream.Emit) {
	// Evictions first: a tuple that both replaces a keyed predecessor and
	// arrives as the predecessor leaves must observe the departure.
	for _, t := range evicted {
		b.evict(t.ID)
	}
	// Arrivals in two phases: admit resolves latest-wins dedup across the
	// batch and the resident window first, then contribute evaluates
	// membership and gating only for the winners. A reading superseded
	// before the slide ever closes — the common case when tags report many
	// times per slide — never pays membership evaluation, exactly as it
	// never reaches the recompute path's per-window dedup survivors.
	batchStart := len(b.recs)
	for _, t := range added {
		b.admit(t)
	}
	for i := batchStart; i < len(b.recs); i++ {
		b.contribute(i)
	}
	b.emitGroups(end, emit)
}

func (b *incWindowAgg) evict(tupID uint64) {
	// Skip holes left by straggler evictions: their ring positions are
	// already gone, so no future eviction will name them.
	for b.recHead < len(b.recs) && b.recs[b.recHead].tupID == 0 {
		b.recs[b.recHead] = tupleRec{}
		b.recHead++
	}
	if b.recHead < len(b.recs) && b.recs[b.recHead].tupID == tupID {
		b.withdrawAt(b.recBase + uint64(b.recHead))
		b.recs[b.recHead] = tupleRec{}
		b.recHead++
		b.compactRecs()
		return
	}
	// Straggler: the evicted tuple is not at the front (out-of-timestamp-
	// order arrival). Withdraw it in place and leave a hole — shifting the
	// deque would invalidate the absolute sequences byKey holds.
	for i := b.recHead; i < len(b.recs); i++ {
		if b.recs[i].tupID == tupID {
			b.withdrawAt(b.recBase + uint64(i))
			b.recs[i].tupID = 0
			b.recs[i].u = nil
			b.recs[i].hasKey = false
			return
		}
	}
}

// withdrawAt withdraws the record at the absolute sequence seq. byKey is
// left alone: stale entries are detected by sequence comparison at admit
// time, which keeps the eviction path free of map operations.
func (b *incWindowAgg) withdrawAt(seq uint64) {
	r := &b.recs[seq-b.recBase]
	n := int(r.nref)
	for i := 0; i < n; i++ {
		var ref contribRef
		if i < len(r.refs) {
			ref = r.refs[i]
		} else {
			ref = r.spill[i-len(r.refs)]
		}
		switch b.mode {
		case incRows:
			ref.st.acc.Remove(ref.handle)
			ref.st.lins.RemoveIDs(r.u.Lin.IDs())
		case incDelta:
			ref.st.n--
			b.delta.removes = append(b.delta.removes, slotSeq{slot: b.deltaSlot(ref.st), seq: r.seq})
		case incFull:
			ref.st.n--
			ref.st.parts.remove(ref.handle)
		}
		ref.st.dirty = true
	}
	r.nref = 0
	r.spill = nil
}

func (b *incWindowAgg) compactRecs() {
	if b.recHead == len(b.recs) {
		b.recBase += uint64(len(b.recs))
		b.recs = b.recs[:0]
		b.recHead = 0
		return
	}
	if b.recHead > 64 && b.recHead*2 >= len(b.recs) {
		n := copy(b.recs, b.recs[b.recHead:])
		for i := n; i < len(b.recs); i++ {
			b.recs[i] = tupleRec{}
		}
		b.recs = b.recs[:n]
		b.recBase += uint64(b.recHead)
		b.recHead = 0
	}
}

// admit records an arrival and resolves latest-wins dedup. Contributions
// are NOT added here — contribute does that for the batch's winners once
// the whole slide has been admitted.
func (b *incWindowAgg) admit(t *stream.Tuple) {
	u := Unwrap(t)
	seq := b.recBase + uint64(len(b.recs))
	b.recs = append(b.recs, tupleRec{tupID: u.ID, seq: t.Seq, u: u})
	r := &b.recs[len(b.recs)-1]
	if b.cfg.DedupKey == "" || !u.HasKey(b.cfg.DedupKey) {
		return // keyless tuples are never deduplicated (mirrors dedupLatest)
	}
	key := u.Key(b.cfg.DedupKey)
	r.key = key
	r.hasKey = true
	// A byKey entry is live only while its record is still resident (its
	// sequence at or past the deque head) and not a straggler hole —
	// evictions never touch the map, so stale winners are recognized here.
	if prevSeq, ok := b.byKey[key]; ok && prevSeq >= b.recBase+uint64(b.recHead) &&
		b.recs[prevSeq-b.recBase].tupID != 0 {
		prev := &b.recs[prevSeq-b.recBase]
		if u.TS < prev.u.TS {
			// The resident tuple is newer. This one loses every window both
			// appear in, and — evictions being ordered by timestamp — can
			// never outlive the winner into a window of its own, so it never
			// contributes. The record stays as a position placeholder for
			// its eventual eviction.
			r.lost = true
			return
		}
		// Latest wins (arrival order breaks timestamp ties): withdraw the
		// predecessor's contributions (a no-op for an in-batch predecessor,
		// which never contributed) and take over the key.
		b.withdrawAt(prevSeq)
		prev.lost = true
	}
	b.byKey[key] = seq
}

// contribute evaluates membership and runs the aggregate's Add (in the
// partial modes, its Prepare) for the record at index i if it survived the
// batch dedup, inserting its contributions into the group states. A delta
// partial appends each prepared contribution to the close being assembled;
// it is never withdrawn before that close ships, because onSlide withdraws
// (evictions, then dedup replacements) before it contributes.
func (b *incWindowAgg) contribute(i int) {
	r := &b.recs[i]
	if r.lost {
		return // superseded within its own slide: never contributes
	}
	u := r.u
	for _, gm := range b.cfg.memberOf(u) {
		p := gm.P * u.Exist
		if p <= 0 {
			continue
		}
		st := b.groupFor(gm.Group)
		var h uint64
		switch b.mode {
		case incRows:
			h = st.acc.Add(u, p)
			st.lins.AddIDs(u.Lin.IDs())
		case incDelta:
			st.n++
			d := b.delta
			d.adds = append(d.adds, slotContrib{slot: b.deltaSlot(st), c: PartialContrib{Seq: r.seq, U: u, P: p}})
			c := &d.adds[len(d.adds)-1].c
			c.D, c.Aux = b.cfg.Agg.Prepare(u, p)
		case incFull:
			st.n++
			c := b.newContrib()
			c.Seq, c.U, c.P = r.seq, u, p
			c.D, c.Aux = b.cfg.Agg.Prepare(u, p)
			h = st.parts.add(c)
		}
		st.dirty = true
		r.addRef(contribRef{st: st, handle: h})
	}
}

// emitGroups derives the output tuples per non-empty group, in group-name
// order. For the heavy aggregates (CF inversion, GMM fits, sampling, grid
// tabulations) the per-group result derivation fans out across a worker
// pool; the cheap moment refolds run inline, where pool synchronization
// would cost more than the work. Each group's state is touched by exactly
// one worker and emission stays sequential in name order, so output is
// deterministic regardless of scheduling.
func (b *incWindowAgg) emitGroups(end stream.Time, emit stream.Emit) {
	if b.mode == incDelta {
		b.shipDelta(end, emit)
		return
	}
	b.names = b.names[:0]
	for g, st := range b.states {
		if st.live() == 0 {
			b.drop(st)
			continue
		}
		b.names = append(b.names, g)
	}
	if len(b.names) == 0 {
		return
	}
	sort.Strings(b.names)
	if b.mode == incFull {
		b.emitPartials(end, emit)
		return
	}
	if cap(b.outs) < len(b.names) {
		b.outs = make([][]*stream.Tuple, len(b.names))
	}
	outs := b.outs[:len(b.names)]
	workers := 1
	if b.cfg.Agg.Heavy() {
		workers = runtime.GOMAXPROCS(0)
	}
	runPool(workers, len(b.names), func(i int) {
		outs[i] = b.buildGroup(b.names[i], end)
	})
	for _, ts := range outs {
		for _, t := range ts {
			emit(t)
		}
	}
}

// emitPartials ships one groupPartial per live group, in group-name order,
// carrying the group's prepared contributions in arrival (Seq) order. The
// shipped slice is never mutated afterwards — the merge keeps it by
// reference — so a group untouched since the previous close re-ships the
// same one.
func (b *incWindowAgg) emitPartials(end stream.Time, emit stream.Emit) {
	for _, g := range b.names {
		st := b.states[g]
		if st.dirty || st.sent == nil {
			st.sent = st.parts.appendLive(make([]*PartialContrib, 0, st.parts.liveN))
			st.dirty = false
		}
		emit(stream.NewTuple(partialSchema, end, &groupPartial{end: end, group: g, contribs: st.sent, agg: b.cfg.Agg}))
	}
}

// drop forgets an empty group's state.
func (b *incWindowAgg) drop(st *groupState) {
	delete(b.states, st.name)
	// Drop any cache entry for the deleted state: a later arrival must
	// re-create the group through the map, not feed a ghost.
	for i := range b.recent {
		if b.recent[i].st == st {
			b.recent[i].name = ""
			b.recent[i].st = nil
		}
	}
}

// shipDelta ships the close's slideDelta — every close ships one, empty or
// not, so the merge can tell a delta window from a full-list one — and
// starts the next in storage the merge has handed back. Only the groups the
// close changed can have emptied, so only they are checked.
func (b *incWindowAgg) shipDelta(end stream.Time, emit stream.Emit) {
	for _, st := range b.touched {
		if st.n == 0 {
			b.drop(st)
		}
	}
	clear(b.touched)
	b.touched = b.touched[:0]
	d := b.delta
	b.delta, b.gen = b.link.take(), b.gen+1
	emit(stream.NewTuple(deltaSchema, end, d))
}

// deltaSlot returns the group's slot in the close being assembled.
func (b *incWindowAgg) deltaSlot(st *groupState) int32 {
	if st.gen != b.gen {
		st.gen, st.slot = b.gen, int32(len(b.delta.groups))
		b.delta.groups = append(b.delta.groups, st.name)
		b.touched = append(b.touched, st)
	}
	return st.slot
}

// newContrib returns storage for one prepared contribution, carved from a
// chunk it shares with its neighbours in arrival order — neighbours that
// leave the window at about the same time, so a chunk outlives its
// contributions only briefly. The partial ships references to these, never
// copies.
func (b *incWindowAgg) newContrib() *PartialContrib {
	if len(b.chunk) == cap(b.chunk) {
		b.chunk = make([]PartialContrib, 0, contribChunk)
	}
	b.chunk = b.chunk[:len(b.chunk)+1]
	return &b.chunk[len(b.chunk)-1]
}

const contribChunk = 64

// runPool runs fn(0..n-1) across the given number of workers, the caller
// among them, claiming indexes off an atomic counter; workers <= 1 runs
// inline. Each index is
// claimed by exactly one worker, so fn may write disjoint slots of a shared
// slice without locking. Shared by the incremental box's per-group emission
// and the shard merge's finalize.
func runPool(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is one of the workers
	wg.Wait()
}

// buildGroup assembles one group's output tuples from the cached (or just
// refreshed) result rows and lineage. The tuples are built directly — the
// generic Derive would re-union lineage and re-scan parents the state
// already maintains incrementally. The shape matches the rescan path's
// derived tuples exactly: attributes {attr, "group"-marker}, existence 1,
// lineage = union over live contributors, timestamp = window end.
func (b *incWindowAgg) buildGroup(g string, end stream.Time) []*stream.Tuple {
	st := b.states[g]
	st.refresh()
	return assembleRows(g, st.rows, st.lin, end, b.outNames)
}

// idMultiset maintains a sorted multiset of base-tuple ids — the
// incrementally-maintained lineage of a window aggregate. Contributions
// insert their parents' lineage ids on Add and withdraw them on eviction or
// dedup-replace; Snapshot materializes the current union as a lineage.Set
// with a single copy, replacing the per-emission sort-and-dedup that made
// every slide pay O(k log k) per group.
//
// Tuple ids are allocated monotonically and windows evict oldest-first, so
// the common case is a deque: new ids append at the back, evicted ids pop
// at the front — both O(1). Out-of-order inserts and mid-removals (derived
// lineage, stragglers, dedup-replace) fall back to a memmove.
type idMultiset struct {
	ids    []uint64
	counts []uint32
	head   int
}

// search returns the position of id in ids[head:] (absolute index).
func (m *idMultiset) search(id uint64) int {
	lo, hi := m.head, len(m.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AddIDs inserts each id (counting duplicates).
func (m *idMultiset) AddIDs(ids []uint64) {
	for _, id := range ids {
		if n := len(m.ids); n == m.head || id > m.ids[n-1] {
			m.ids = append(m.ids, id)
			m.counts = append(m.counts, 1)
			continue
		}
		i := m.search(id)
		if i < len(m.ids) && m.ids[i] == id {
			m.counts[i]++
			continue
		}
		m.ids = append(m.ids, 0)
		copy(m.ids[i+1:], m.ids[i:])
		m.ids[i] = id
		m.counts = append(m.counts, 0)
		copy(m.counts[i+1:], m.counts[i:])
		m.counts[i] = 1
	}
}

// RemoveIDs withdraws each id, dropping it once its count reaches zero.
func (m *idMultiset) RemoveIDs(ids []uint64) {
	for _, id := range ids {
		i := m.search(id)
		if i >= len(m.ids) || m.ids[i] != id {
			continue // unknown id: tolerated, like a stale Acc.Remove handle
		}
		m.counts[i]--
		if m.counts[i] > 0 {
			continue
		}
		if i == m.head {
			m.head++
			if m.head == len(m.ids) {
				m.ids = m.ids[:0]
				m.counts = m.counts[:0]
				m.head = 0
			} else if m.head > 64 && m.head*2 >= len(m.ids) {
				n := copy(m.ids, m.ids[m.head:])
				copy(m.counts, m.counts[m.head:])
				m.ids = m.ids[:n]
				m.counts = m.counts[:n]
				m.head = 0
			}
			continue
		}
		m.ids = append(m.ids[:i], m.ids[i+1:]...)
		m.counts = append(m.counts[:i], m.counts[i+1:]...)
	}
}

// emptied returns the multiset emptied, keeping its storage.
func (m idMultiset) emptied() idMultiset {
	return idMultiset{ids: m.ids[:0], counts: m.counts[:0]}
}

// Snapshot returns the distinct ids as a lineage set (one copy, no sort).
func (m *idMultiset) Snapshot() lineage.Set { return lineage.FromSorted(m.ids[m.head:]) }
