package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/uop"
)

// This file is the worker side of cluster execution. A router (see
// internal/router) owns the window clock and key routing; this worker runs
// one partial-aggregate plan over its key subset and ships every result —
// per-group partials, then the forwarded close, per window — back to the
// router as BwPart frames carrying core.PartCodec encodings: positional,
// self-contained, and projected to what the router's merge reads. Routed
// tuples, replica copies and closes arrive only as bwire frames too; the
// control verbs (join, ckpt, snap, promote, reset, release) stay JSON.
//
// Beyond its own slot, a worker plays two supporting roles:
//
//   - Replica host: tuple frames flagged replica are appended, as
//     self-contained BwTail records, to a per-slot replay tail. Close
//     punctuations are appended to every tail, so a tail is always a
//     complete suffix of the slot's input stream — replaying it through a
//     fresh plan reproduces the dead worker's state (and, crucially, its
//     close count, which the output-suppression accounting below depends
//     on).
//   - Failover host: on "promote" the worker spawns an in-process instance
//     for the dead slot — restored from the last installed snapshot when
//     one matches, fresh otherwise — replays the tail, and from then on
//     runs the slot alongside its own. The instance suppresses output for
//     window ordinals the router has already merged (Closes on the promote
//     line), so the merged alert stream sees each window's parts exactly
//     once.
type clusterState struct {
	s *Server

	// shard is this worker's assigned slot (-1 until the router joins it).
	shard atomic.Int64

	mu       sync.Mutex
	joined   bool
	workers  int
	replicas int
	version  uint64
	// epochEnded flips when "end" arrives (or the epoch's run returns) and
	// back when the next epoch begins; a promote that lands after it must
	// drain its instance inline before acking.
	epochEnded bool
	ownPE      *partEmitter
	// tails holds, per non-own slot, the replica tuple and close records
	// (BwTail and BwClose frames) received since the slot's last installed
	// snapshot (or epoch start).
	tails map[int][][]byte
	// marks records, per cluster-checkpoint id, each tail's length when the
	// checkpoint was taken — the replay suffix boundary once the snapshot
	// installs.
	marks map[uint64]map[int]int
	// snaps holds the last snapshot installed per slot ("snap" lines).
	snaps map[int]snapRec
	// insts are the promoted failover instances, by slot.
	insts map[int]*instance
	// hosted marks slots this worker has permanently taken over: once a
	// slot is promoted here, every later epoch spawns a fresh instance for
	// it up front, so the new epoch's closes reach it from the first
	// punctuation (the router keeps routing the slot here).
	hosted map[int]bool
	// pendingReset is a router-recovery rewind waiting for the next epoch;
	// the resets counter increments when one is applied.
	pendingReset *ResetBlob
	// fence is the accept-order id of the connection that sent the last
	// reset (written under mu): every older connection is stale
	// (Server.stale), since the router that reset this worker supersedes
	// whichever one sent on them.
	fence atomic.Uint64
	// ownReleased silences the worker's own slot: its state migrated to
	// another worker, so this plan keeps consuming closes (the clock still
	// broadcasts to every link) but ships no parts.
	ownReleased bool

	parts        atomic.Uint64
	closes       atomic.Uint64
	replicaLines atomic.Uint64
	promotions   atomic.Uint64
	resets       atomic.Uint64
	releases     atomic.Uint64
}

// snapRec is one installed replica snapshot.
type snapRec struct {
	id     uint64 // cluster checkpoint id
	closes uint64 // window closes consumed before the snapshot
	data   []byte
}

// instance is a promoted slot running in-process alongside the worker's own
// epoch: its own plan, ingest queue, and live run.
type instance struct {
	slot     int
	plan     *uop.Compiled
	queue    *Queue
	barriers chan func()
	runDone  chan struct{}
	pe       *partEmitter
}

// partEmitter tracks one plan's outbound part stream: how many window
// closes it has emitted (the window ordinal), and the suppression floor a
// promotion sets so already-merged windows are not re-shipped. suppress is
// atomic because a "release" (the slot migrated away) raises it to the
// ceiling while the plan is still running.
type partEmitter struct {
	// slot is the emitting slot, or -1 to read clusterState.shard at emit
	// time (the worker's own epoch starts before the router joins it).
	slot     int
	ordinal  atomic.Uint64
	suppress atomic.Uint64
	// codec is the part encoder's scratch, reused across parts: emitPart
	// runs on the plan's one sink goroutine.
	codec core.PartCodec
}

// releaseFloor silences an emitter permanently (slot released/migrated).
const releaseFloor = ^uint64(0)

func newClusterState(s *Server) *clusterState {
	cl := &clusterState{
		s:      s,
		tails:  map[int][][]byte{},
		marks:  map[uint64]map[int]int{},
		snaps:  map[int]snapRec{},
		insts:  map[int]*instance{},
		hosted: map[int]bool{},
	}
	cl.shard.Store(-1)
	return cl
}

// ringVersion reports the membership version from the last join (for pong).
func (cl *clusterState) ringVersion() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.version
}

// beginEpoch resets per-epoch cluster state for a fresh engine epoch and
// returns the epoch's own part emitter. Hosted slots (taken over by a past
// failover) get a fresh instance up front, so the epoch's very first close
// punctuation reaches them.
func (cl *clusterState) beginEpoch(ep *epoch) *partEmitter {
	cl.mu.Lock()
	pr := cl.pendingReset
	cl.pendingReset = nil
	if pr != nil {
		// A router-recovery rewind defines the complete post-reset role set:
		// which slots this worker hosts, which it merely replicates, and
		// whether its own slot still lives here.
		cl.hosted = map[int]bool{}
		for _, sb := range pr.Insts {
			cl.hosted[sb.Slot] = true
		}
		cl.ownReleased = pr.Own == nil
	}
	cl.insts = map[int]*instance{}
	cl.marks = map[uint64]map[int]int{}
	cl.snaps = map[int]snapRec{}
	if pr != nil {
		for _, sb := range pr.Reps {
			cl.snaps[sb.Slot] = snapRec{id: pr.Ckpt, closes: sb.Closes, data: sb.Data}
		}
	}
	cl.resetTailsLocked()
	pe := &partEmitter{slot: -1}
	if cl.ownReleased {
		pe.suppress.Store(releaseFloor)
	}
	cl.ownPE = pe
	hosted := make([]int, 0, len(cl.hosted))
	for slot := range cl.hosted {
		hosted = append(hosted, slot)
	}
	cl.mu.Unlock()
	if pr != nil && pr.Own != nil && len(pr.Own.Data) > 0 {
		// Restore the own slot's plan to the router's recovered cut. The
		// plan is not running yet (RunLiveOpts starts after beginEpoch), so
		// the restore races nothing, and swapping in a fresh plan after a
		// failed restore is safe.
		if err := cl.s.restorePlan(ep, pr.Own.Data); err == nil {
			pe.ordinal.Store(pr.Own.Closes)
		} else {
			cl.s.noteCkptErr(fmt.Errorf("reset: restore own slot: %w", err))
		}
	}
	sort.Ints(hosted)
	for _, slot := range hosted {
		rec, hasSnap := snapRec{}, false
		var floor uint64
		if pr != nil {
			for _, sb := range pr.Insts {
				if sb.Slot == slot {
					rec = snapRec{id: pr.Ckpt, closes: sb.Closes, data: sb.Data}
					hasSnap = len(sb.Data) > 0
					floor = sb.Closes
				}
			}
		}
		if inst, err := cl.spawnInstance(slot, rec, hasSnap, floor); err == nil && pr != nil {
			// Migrated/recovered instances emit from the router's current
			// merge ordinal even when restored fresh.
			inst.pe.ordinal.Store(floor)
		}
	}
	// Flip last: a promote or close waiting out the epoch gap may proceed
	// only once the hosted instances exist.
	cl.mu.Lock()
	if pr != nil {
		cl.resets.Add(1)
	}
	cl.epochEnded = false
	cl.mu.Unlock()
	return pe
}

// resetTailsLocked re-creates an empty tail for every slot this worker
// neither owns nor hosts, so closes accumulate per slot from the epoch's
// first punctuation onward.
func (cl *clusterState) resetTailsLocked() {
	cl.tails = map[int][][]byte{}
	if !cl.joined {
		return
	}
	own := int(cl.shard.Load())
	for i := 0; i < cl.workers; i++ {
		if i != own && !cl.hosted[i] {
			cl.tails[i] = nil
		}
	}
}

// endEpoch marks end-of-stream for the cluster layer and closes every
// promoted instance's queue so they drain alongside the worker's own epoch.
func (cl *clusterState) endEpoch() {
	cl.mu.Lock()
	cl.epochEnded = true
	insts := cl.instancesLocked()
	cl.mu.Unlock()
	for _, inst := range insts {
		inst.queue.Close()
	}
}

// finishEpoch (engine loop, after the epoch's own run returns) waits for
// every promoted instance to drain, so the worker's "done" line provably
// follows the last part of every hosted slot.
func (cl *clusterState) finishEpoch() {
	cl.mu.Lock()
	cl.epochEnded = true
	insts := cl.instancesLocked()
	cl.mu.Unlock()
	for _, inst := range insts {
		inst.queue.Close()
		<-inst.runDone
	}
}

func (cl *clusterState) instancesLocked() []*instance {
	insts := make([]*instance, 0, len(cl.insts))
	for _, inst := range cl.insts {
		insts = append(insts, inst)
	}
	return insts
}

// emitPart runs on a plan's sink goroutine: serialize the partial (or
// forwarded close) and broadcast it to the router's subscription as a
// BwPart frame. ep is the worker's own epoch, nil for promoted instances.
func (cl *clusterState) emitPart(ep *epoch, pe *partEmitter, t *stream.Tuple) {
	// A crashed worker must go silent. Crash cancels the run context but the
	// engine still drains gracefully, and ingest Puts racing the cancel can
	// lose tuples mid-stream (both select arms ready), so whatever the drain
	// computes for a still-open window is built from a gap-riddled subset of
	// the slot's feed. If that half-window partial (and its forwarded close)
	// reached the router, the merge would adopt it as the window's real
	// contribution and suppress the replica's correct replay of the same
	// ordinal. A real kill -9 can never emit past the kill; neither may we.
	if cl.s.crashed.Load() {
		return
	}
	_, isClose := stream.WindowCloseOf(t)
	ord := pe.ordinal.Load()
	if isClose {
		pe.ordinal.Add(1)
	}
	if ord < pe.suppress.Load() {
		return // the router already merged this window (or the slot migrated away)
	}
	slot := pe.slot
	if slot < 0 {
		slot = int(cl.shard.Load())
		if slot < 0 {
			return // never joined; nobody is listening
		}
	}
	data, err := pe.codec.Encode(t)
	if err != nil {
		cl.s.encodeErrs.Add(1)
		return
	}
	cl.parts.Add(1)
	if ep != nil {
		ep.alerts.Add(1)
	}
	// Bounded-wait, never drop: losing a part would wedge the router's
	// merge, which counts closes per port. The frame is the one copy of
	// the scratch encoding, allocated at exact size.
	cl.s.hub.BroadcastControl(EncodeBwPart(slot, data))
}

// handleBwTuples dispatches one TUPLES frame's decoded tuples. The router
// sends one slot's tuples per frame, so a frame for the worker's own slot
// takes the batched ingest path whole. Otherwise each tuple is dispatched
// alone: replica copies are re-encoded as self-contained tail records (the
// connection's schema table dies with the connection; the tail must not),
// hosted-slot tuples feed their instance, and own-slot stragglers take the
// single-tuple ingest path.
func (cl *clusterState) handleBwTuples(bts []BwTuple, in *connIngest) (int, error) {
	own := int(cl.shard.Load())
	if allOwn(bts, own) {
		return cl.s.ingestBatch(bts, in)
	}
	for i := range bts {
		bt := &bts[i]
		if bt.Replica {
			if bt.Shard < 0 {
				return i, errors.New("replica tuple carries no shard")
			}
			rec := EncodeTailTuple(bt)
			cl.mu.Lock()
			if cl.s.stale(in.id) {
				cl.mu.Unlock()
				return i, errStaleLink
			}
			cl.tails[bt.Shard] = append(cl.tails[bt.Shard], rec)
			cl.mu.Unlock()
			cl.replicaLines.Add(1)
			continue
		}
		u, err := bt.UTuple()
		if err != nil {
			return i, err
		}
		t := core.Wrap(u)
		t.Seq = bt.Seq
		if bt.Shard >= 0 && bt.Shard != own {
			err = cl.feedInstance(bt.Shard, sourceName(bt.Schema.Source), t, in.id)
		} else {
			err = cl.s.enqueue(sourceName(bt.Schema.Source), t, in.id)
		}
		if err != nil {
			return i, err
		}
	}
	return len(bts), nil
}

// allOwn reports whether every tuple of a frame is a routed (or unrouted)
// tuple for the worker's own slot.
func allOwn(bts []BwTuple, own int) bool {
	for i := range bts {
		if bts[i].Replica || (bts[i].Shard >= 0 && bts[i].Shard != own) {
			return false
		}
	}
	return true
}

// feedInstance delivers a routed tuple from connection id to a promoted
// slot's instance. Like Server.enqueue, it waits out the between-epochs
// gap: the next beginEpoch re-spawns hosted instances, and tuples that race
// it must not be lost.
func (cl *clusterState) feedInstance(slot int, source string, t *stream.Tuple, id uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.mu.Lock()
		inst, hosted, stale := cl.insts[slot], cl.hosted[slot], cl.s.stale(id)
		cl.mu.Unlock()
		if stale {
			return errStaleLink
		}
		if inst != nil {
			err := cl.pushInstance(inst, source, t)
			if !errors.Is(err, ErrQueueClosed) {
				return err
			}
		} else if !hosted {
			return fmt.Errorf("tuple for slot %d, which this worker neither owns nor hosts", slot)
		}
		select {
		case <-cl.s.done:
			return errors.New("engine stopped; no further streams accepted")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("slot %d instance not running; retry", slot)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (cl *clusterState) pushInstance(inst *instance, source string, t *stream.Tuple) error {
	box, port, ok := inst.plan.LookupSource(source)
	if !ok {
		return fmt.Errorf("unknown source %q", source)
	}
	return inst.queue.Put(cl.s.ctx, stream.SourceTuple{Box: box, Port: port, T: t})
}

// handleControl dispatches the cluster control kinds; replies (possibly
// several, for multi-slot checkpoint acks) go back on the same connection.
func (cl *clusterState) handleControl(m Msg, id uint64) ([]Msg, error) {
	switch m.Kind {
	case KindJoin:
		return cl.handleJoin(m)
	case KindCkpt:
		return cl.handleCkpt(m)
	case KindSnap:
		return cl.handleSnap(m)
	case KindPromote:
		return cl.handlePromote(m)
	case KindReset:
		return cl.handleReset(m, id)
	case KindRelease:
		return cl.handleRelease(m)
	}
	return nil, fmt.Errorf("unknown cluster kind %q", m.Kind)
}

// handleReset rewinds this worker to a router checkpoint cut: fence every
// connection older than id (the resetting router's), park the composite
// blob, cut the current epoch (its drained output goes nowhere — the
// recovering router has not subscribed yet), and wait for the next
// beginEpoch to apply it. The ack returns only once the rewound epoch is
// live, so the router's subsequent subscribe sees post-reset state only.
// The fence goes up before the blob is parked, so it precedes the rewound
// epoch: a dead router's frames still buffered on its old connection are
// refused instead of feeding the new epoch, its tails or its instances.
func (cl *clusterState) handleReset(m Msg, id uint64) ([]Msg, error) {
	rb, err := DecodeResetBlob(m.Data)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if id > cl.fence.Load() {
		cl.fence.Store(id)
	}
	cl.pendingReset = rb
	cl.mu.Unlock()
	before := cl.resets.Load()
	deadline := time.Now().Add(15 * time.Second)
	for cl.resets.Load() == before {
		// Cut whatever epoch is currently running; idempotent, and re-issued
		// each iteration in case the cut raced an epoch turnover.
		if ep := cl.s.epoch(); ep != nil && cl.resets.Load() == before {
			cl.endEpoch()
			ep.queue.Close()
		}
		select {
		case <-cl.s.done:
			return nil, errors.New("engine stopped; reset not applied")
		default:
		}
		if time.Now().After(deadline) {
			return nil, errors.New("reset timed out waiting for epoch turnover")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return []Msg{{Kind: KindOK, Ckpt: rb.Ckpt}}, nil
}

// handleRelease stops this worker from emitting for a slot that migrated
// away: the own slot is suppressed permanently (the plan keeps consuming
// the clock's closes, silently), a hosted instance is torn down. The slot
// returns to plain tailing from the next epoch on.
func (cl *clusterState) handleRelease(m Msg) ([]Msg, error) {
	if m.Shard == nil {
		return nil, errors.New("release carries no shard")
	}
	slot := *m.Shard
	cl.mu.Lock()
	var inst *instance
	if slot == int(cl.shard.Load()) {
		cl.ownReleased = true
		if cl.ownPE != nil {
			cl.ownPE.suppress.Store(releaseFloor)
		}
	} else if inst = cl.insts[slot]; inst != nil {
		inst.pe.suppress.Store(releaseFloor)
		delete(cl.insts, slot)
		delete(cl.hosted, slot)
	} else {
		delete(cl.hosted, slot)
	}
	if slot != int(cl.shard.Load()) {
		// Resume tailing the slot right away (not just from the next
		// epoch): the router may re-assign this worker as the slot's
		// replica at a later cut, and the tail must have every close since
		// its snapshot install.
		if _, ok := cl.tails[slot]; !ok {
			cl.tails[slot] = nil
		}
	}
	cl.mu.Unlock()
	if inst != nil {
		inst.queue.Close()
	}
	cl.releases.Add(1)
	return []Msg{{Kind: KindOK, Shard: m.Shard}}, nil
}

// handleJoin assigns this worker's slot and cluster geometry. Idempotent
// per router run: a reconnecting router re-joins with the same geometry.
// Shard -1 admits the worker with no slot of its own (a mid-stream joiner:
// it tails every slot until the router migrates some onto it).
func (cl *clusterState) handleJoin(m Msg) ([]Msg, error) {
	if m.Shard == nil || *m.Shard < -1 {
		return nil, errors.New("join carries no shard")
	}
	if m.Workers < 1 || *m.Shard >= m.Workers {
		return nil, fmt.Errorf("join slot %d out of range for %d workers", *m.Shard, m.Workers)
	}
	cl.mu.Lock()
	cl.joined = true
	cl.workers = m.Workers
	cl.replicas = m.Replicas
	cl.version = m.Version
	cl.shard.Store(int64(*m.Shard))
	cl.resetTailsLocked()
	cl.mu.Unlock()
	return []Msg{{Kind: KindOK, Version: m.Version}}, nil
}

// handleBwClose replays one router-clock window-close punctuation into the
// worker's own epoch, every promoted instance, and every replica tail. A
// close that lands in the between-epochs gap waits for the next epoch (and
// its re-spawned hosted instances) first, so no hosted slot ever misses a
// punctuation — the merge counts one close per port per window. The tail
// record is the frame's canonical re-encoding: self-contained, so replay
// needs no connection state.
func (cl *clusterState) handleBwClose(cm BwCloseMsg, id uint64) error {
	if cm.T < 0 {
		return fmt.Errorf("close t_ms %d is negative", cm.T)
	}
	rec := EncodeBwClose(cm.Source, cm.T, cm.Seq)
	source, end := sourceName(cm.Source), stream.Time(cm.T)
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.mu.Lock()
		if cl.s.stale(id) {
			cl.mu.Unlock()
			return errStaleLink
		}
		if !cl.epochEnded {
			break // still holding cl.mu
		}
		cl.mu.Unlock()
		select {
		case <-cl.s.done:
			return errors.New("engine stopped; no further streams accepted")
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("stream draining; retry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for slot := range cl.tails {
		cl.tails[slot] = append(cl.tails[slot], rec)
	}
	insts := cl.instancesLocked()
	cl.mu.Unlock()
	cl.closes.Add(1)
	for _, inst := range insts {
		if err := cl.pushInstance(inst, source, stream.NewWindowClose(end, cm.Seq)); err != nil {
			return fmt.Errorf("slot %d: %w", inst.slot, err)
		}
	}
	return cl.s.enqueue(source, stream.NewWindowClose(end, cm.Seq), id)
}

// handleCkpt takes a cluster checkpoint: snapshot the worker's own slot and
// every hosted instance at a quiesce barrier, and mark every replica tail's
// current length so the tails can be trimmed once the router confirms the
// snapshots are installed on the slots' replicas ("snap"). One ckpt_ack per
// hosted slot rides back, carrying the snapshot blob and the slot's
// consumed-close count.
func (cl *clusterState) handleCkpt(m Msg) ([]Msg, error) {
	if m.Ckpt == 0 {
		return nil, errors.New("cluster checkpoint needs a nonzero id")
	}
	cl.mu.Lock()
	if cl.epochEnded {
		cl.mu.Unlock()
		return nil, errors.New("epoch ended before checkpoint ran")
	}
	mk := map[int]int{}
	for slot, tail := range cl.tails {
		mk[slot] = len(tail)
	}
	cl.marks[m.Ckpt] = mk
	ep := cl.s.epoch()
	ownPE := cl.ownPE
	ownQuiet := cl.ownReleased
	insts := cl.instancesLocked()
	cl.mu.Unlock()
	if ep == nil {
		return nil, errors.New("no epoch running")
	}
	own := int(cl.shard.Load())
	var acks []Msg
	// A released own slot (migrated away) and a slotless joiner have no
	// live state for their home plan — and the slot's real host acks it, so
	// a stale ack here would double-count in the router's round. The plan
	// still drains through the barrier so the quiesce covers this worker.
	data, closes, err := snapshotPlan(ep.queue, ep.barriers, ep.runDone, ep.plan, ownPE)
	if err != nil {
		return nil, fmt.Errorf("slot %d: %w", own, err)
	}
	if own >= 0 && !ownQuiet {
		slot := own
		acks = append(acks, Msg{Kind: KindCkptAck, Shard: &slot, Ckpt: m.Ckpt, Closes: closes, Data: data})
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i].slot < insts[j].slot })
	for _, inst := range insts {
		data, closes, err := snapshotPlan(inst.queue, inst.barriers, inst.runDone, inst.plan, inst.pe)
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", inst.slot, err)
		}
		is := inst.slot
		acks = append(acks, Msg{Kind: KindCkptAck, Shard: &is, Ckpt: m.Ckpt, Closes: closes, Data: data})
	}
	return acks, nil
}

// snapshotPlan quiesces one live plan through its barrier channel and
// captures its checkpoint plus the part emitter's close ordinal — read
// inside the barrier, where the graph is idle, so the pair is consistent.
func snapshotPlan(q *Queue, barriers chan func(), runDone chan struct{}, plan *uop.Compiled, pe *partEmitter) (data []byte, closes uint64, err error) {
	deadline := time.Now().Add(10 * time.Second)
	for q.Depth() > 0 {
		select {
		case <-runDone:
			return nil, 0, errors.New("run ended before checkpoint ran")
		default:
		}
		if time.Now().After(deadline) {
			return nil, 0, errors.New("checkpoint timed out waiting for queue drain")
		}
		time.Sleep(200 * time.Microsecond)
	}
	errc := make(chan error, 1)
	fn := func() {
		var ferr error
		data, ferr = plan.Checkpoint()
		closes = pe.ordinal.Load()
		errc <- ferr
	}
	select {
	case barriers <- fn:
		select {
		case err := <-errc:
			return data, closes, err
		case <-runDone:
			return nil, 0, errors.New("run ended before checkpoint completed")
		}
	case <-runDone:
		return nil, 0, errors.New("run ended before checkpoint ran")
	case <-time.After(10 * time.Second):
		return nil, 0, errors.New("checkpoint request timed out")
	}
}

// handleSnap installs a snapshot for a slot this worker replicates, and
// trims the slot's replay tail to the suffix past the checkpoint mark: a
// later promote restores the snapshot and replays only that suffix.
func (cl *clusterState) handleSnap(m Msg) ([]Msg, error) {
	if m.Shard == nil {
		return nil, errors.New("snap carries no shard")
	}
	slot := *m.Shard
	cl.mu.Lock()
	cl.snaps[slot] = snapRec{id: m.Ckpt, closes: m.Closes, data: m.Data}
	if mk, ok := cl.marks[m.Ckpt][slot]; ok {
		if tail, ok := cl.tails[slot]; ok && mk <= len(tail) {
			// Drop the trimmed records from the backing array, which the
			// suffix keeps alive until the next append reallocates it.
			clear(tail[:mk])
			cl.tails[slot] = tail[mk:]
			// Older/newer marks recorded lengths of the untrimmed tail.
			for _, mm := range cl.marks {
				if v, ok := mm[slot]; ok {
					mm[slot] = max(v-mk, 0)
				}
			}
		}
	}
	cl.mu.Unlock()
	return []Msg{{Kind: KindSnapAck, Shard: m.Shard, Ckpt: m.Ckpt}}, nil
}

// handlePromote fails a dead worker's slot over to this one: spawn an
// instance from the last installed snapshot (when the router names one we
// hold), replay the tail suffix, and suppress output for the window
// ordinals the router already merged. If the epoch has already ended, the
// instance drains inline so the "promoted" ack provably follows its last
// part frame.
func (cl *clusterState) handlePromote(m Msg) ([]Msg, error) {
	if m.Shard == nil {
		return nil, errors.New("promote carries no shard")
	}
	slot := *m.Shard
	if slot == int(cl.shard.Load()) {
		return nil, fmt.Errorf("cannot promote own slot %d", slot)
	}
	cl.mu.Lock()
	if _, dup := cl.insts[slot]; dup {
		cl.mu.Unlock()
		return nil, fmt.Errorf("slot %d already promoted", slot)
	}
	rec, hasSnap := cl.snaps[slot]
	hasSnap = hasSnap && m.Ckpt != 0 && rec.id == m.Ckpt
	tail := cl.tails[slot]
	delete(cl.tails, slot) // the slot is live here now; no more tailing
	cl.hosted[slot] = true // later epochs spawn it fresh in beginEpoch
	ended := cl.epochEnded
	cl.mu.Unlock()

	inst, err := cl.spawnInstance(slot, rec, hasSnap, m.Closes)
	if err != nil {
		return nil, err
	}
	if m.Align {
		// Migration (not failover): there is no tail to replay, and the
		// instance — whatever state it restored — must stamp its next part
		// with the router's current merge ordinal.
		inst.pe.ordinal.Store(m.Closes)
	}
	for i, rec := range tail {
		if err := cl.replayRecord(inst, rec); err != nil {
			return nil, fmt.Errorf("slot %d: replay tail record %d: %w", slot, i, err)
		}
	}
	if ended {
		inst.queue.Close()
		<-inst.runDone
	}
	cl.promotions.Add(1)
	return []Msg{{Kind: KindPromoted, Shard: m.Shard}}, nil
}

// spawnInstance starts a live plan instance for a hosted slot — restored
// from a snapshot when one is given — and registers it.
func (cl *clusterState) spawnInstance(slot int, rec snapRec, hasSnap bool, suppress uint64) (*instance, error) {
	plan := cl.s.cfg.NewPlan()
	if hasSnap {
		if err := plan.RestoreFrom(rec.data); err != nil {
			return nil, fmt.Errorf("slot %d: restore snapshot %d: %w", slot, rec.id, err)
		}
	}
	pe := &partEmitter{slot: slot}
	pe.suppress.Store(suppress)
	if hasSnap {
		pe.ordinal.Store(rec.closes)
	}
	plan.OnResult(func(t *stream.Tuple) { cl.emitPart(nil, pe, t) })
	inst := &instance{
		slot:     slot,
		plan:     plan,
		queue:    NewQueue(cl.s.cfg.QueueCap, Block),
		barriers: make(chan func()),
		runDone:  make(chan struct{}),
		pe:       pe,
	}
	go func() {
		defer close(inst.runDone)
		plan.RunLiveOpts(cl.s.ctx, inst.queue, stream.LiveOptions{
			Buffer:     cl.s.cfg.Buffer,
			FlushEvery: cl.s.cfg.FlushEvery,
			Barriers:   inst.barriers,
		})
	}()
	cl.mu.Lock()
	cl.insts[slot] = inst
	cl.mu.Unlock()
	return inst, nil
}

// replayRecord feeds one tail record — a BwTail replica tuple or a BwClose
// punctuation — into a promoted instance. Tail records are self-contained
// frames: no schema table survives the connection that carried them, so
// none is needed.
func (cl *clusterState) replayRecord(inst *instance, rec []byte) error {
	kind, payload, err := SplitFrame(rec)
	if err != nil {
		return err
	}
	switch kind {
	case BwTail:
		tm, err := DecodeTailTuple(payload)
		if err != nil {
			return err
		}
		u, err := tm.UTuple()
		if err != nil {
			return err
		}
		t := core.Wrap(u)
		t.Seq = tm.Seq
		return cl.pushInstance(inst, sourceName(tm.Source), t)
	case BwClose:
		cm, err := DecodeBwClose(payload)
		if err != nil {
			return err
		}
		return cl.pushInstance(inst, sourceName(cm.Source), stream.NewWindowClose(stream.Time(cm.T), cm.Seq))
	}
	return fmt.Errorf("unexpected frame kind 0x%02x in replay tail", kind)
}

// ClusterStatsz is the /statsz cluster-worker section.
type ClusterStatsz struct {
	Joined   bool   `json:"joined"`
	Shard    int    `json:"shard"`
	Workers  int    `json:"workers"`
	Replicas int    `json:"replicas"`
	Version  uint64 `json:"version"`
	// Parts counts part frames shipped; Closes counts router punctuations
	// consumed; ReplicaLines counts dual-written tuples tailed.
	Parts        uint64 `json:"parts"`
	Closes       uint64 `json:"closes"`
	ReplicaLines uint64 `json:"replica_lines"`
	Promotions   uint64 `json:"promotions"`
	// Resets counts router-recovery rewinds applied; Releases counts slots
	// migrated away; OwnReleased marks a worker whose own slot lives
	// elsewhere now.
	Resets      uint64 `json:"resets,omitempty"`
	Releases    uint64 `json:"releases,omitempty"`
	OwnReleased bool   `json:"own_released,omitempty"`
	// Tails maps each replicated slot to its current replay-tail length.
	Tails map[int]int `json:"tails,omitempty"`
	// Hosted lists promoted slots currently running on this worker.
	Hosted []int `json:"hosted,omitempty"`
}

// statsz snapshots the cluster section.
func (cl *clusterState) statsz() *ClusterStatsz {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cs := &ClusterStatsz{
		Joined:       cl.joined,
		Shard:        int(cl.shard.Load()),
		Workers:      cl.workers,
		Replicas:     cl.replicas,
		Version:      cl.version,
		Parts:        cl.parts.Load(),
		Closes:       cl.closes.Load(),
		ReplicaLines: cl.replicaLines.Load(),
		Promotions:   cl.promotions.Load(),
		Resets:       cl.resets.Load(),
		Releases:     cl.releases.Load(),
		OwnReleased:  cl.ownReleased,
	}
	if len(cl.tails) > 0 {
		cs.Tails = make(map[int]int, len(cl.tails))
		for slot, tail := range cl.tails {
			cs.Tails[slot] = len(tail)
		}
	}
	for slot := range cl.insts {
		cs.Hosted = append(cs.Hosted, slot)
	}
	sort.Ints(cs.Hosted)
	return cs
}
