package router

import (
	"errors"
	"fmt"

	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/internal/stream"
)

// Router durability. Every completed checkpoint round persists one blob to
// Config.Store — the router's entire resumable state at that quiesced cut:
//
//   - the stream state: partition snapshot (window clock, round-robin
//     cursor, per-key routing seq), head-graph checkpoint (merge + post
//     stages), per-slot merge floors, the close log, the routed-tuple and
//     alert counts;
//   - the topology: worker roster (address, home slot, placement id,
//     liveness), slot→host and slot→replica tables, each slot's snapshot
//     from the round, the placement generation counters.
//
// Because the cut is quiesced (see ckpt.go), the blob is internally
// consistent: per-slot merge floors equal the workers' snapshot close
// counts, nothing is half-merged, and the slot snapshots in the blob are
// exactly the worker state at the same instant. Recovery therefore needs no
// reconciliation: rebuild the tables, rewind each reachable worker to the
// blob's cut with a "reset" composite, restore the stream state, and
// resume. Workers that cannot be re-dialed fail over through the ordinary
// path once the epoch is restored.
//
// The blob is keyed by epoch number; a cleanly drained epoch deletes its
// blob, so recovery never resurrects a finished stream.

const routerStateV1 = 1

// rosterEntry is one worker link's durable identity.
type rosterEntry struct {
	addr   string
	home   int
	member string
	alive  bool
}

// routerState is the decoded durable blob.
type routerState struct {
	ckpt        uint64
	n           int
	routedSeq   uint64
	alerts      uint64
	nslots      int
	weights     []int
	roster      []rosterEntry
	routeSlot   []int
	replicaSlot []int
	snaps       []roundSnap // per slot; absent = zero (data nil)
	closes      []uint64
	closeLog    []closePt
	hostSeq     int
	placeVer    uint64
	movedRanges uint64
	rebalances  uint64
	part        []byte
	head        []byte
}

// present reports whether a slot snapshot was captured (served slots always
// snapshot at a round; degraded slots never do).
func (sn roundSnap) present() bool { return sn.data != nil }

func (st *routerState) encode() []byte {
	var w snap.Writer
	w.U8(routerStateV1)
	w.Uvarint(st.ckpt)
	w.Varint(int64(st.n))
	w.Uvarint(st.routedSeq)
	w.Uvarint(st.alerts)
	w.Varint(int64(st.nslots))
	for _, x := range st.weights {
		w.Varint(int64(x))
	}
	w.Uvarint(uint64(len(st.roster)))
	for _, re := range st.roster {
		w.String(re.addr)
		w.Varint(int64(re.home))
		w.String(re.member)
		w.Bool(re.alive)
	}
	for _, v := range st.routeSlot {
		w.Varint(int64(v))
	}
	for _, v := range st.replicaSlot {
		w.Varint(int64(v))
	}
	for _, sn := range st.snaps {
		w.Bool(sn.present())
		if sn.present() {
			w.Uvarint(sn.closes)
			w.Blob(sn.data)
		}
	}
	for _, v := range st.closes {
		w.Uvarint(v)
	}
	w.Uvarint(uint64(len(st.closeLog)))
	for _, cp := range st.closeLog {
		w.Varint(int64(cp.t))
		w.Uvarint(cp.seq)
	}
	w.Varint(int64(st.hostSeq))
	w.Uvarint(st.placeVer)
	w.Uvarint(st.movedRanges)
	w.Uvarint(st.rebalances)
	w.Blob(st.part)
	w.Blob(st.head)
	return w.Bytes()
}

func decodeRouterState(data []byte) (*routerState, error) {
	r := snap.NewReader(data)
	if v := r.U8(); v != routerStateV1 {
		r.Fail("router state version %d unsupported", v)
	}
	st := &routerState{
		ckpt:      r.Uvarint(),
		n:         int(r.Varint()),
		routedSeq: r.Uvarint(),
		alerts:    r.Uvarint(),
		nslots:    int(r.Varint()),
	}
	if st.nslots <= 0 || st.nslots > 1<<20 {
		r.Fail("router state: implausible slot count %d", st.nslots)
	}
	if r.Err() == nil {
		s := st.nslots
		st.weights = make([]int, s)
		for i := range st.weights {
			st.weights[i] = int(r.Varint())
		}
		for i, n := 0, r.Len(); i < n && r.Err() == nil; i++ {
			st.roster = append(st.roster, rosterEntry{
				addr:   r.String(),
				home:   int(r.Varint()),
				member: r.String(),
				alive:  r.Bool(),
			})
		}
		st.routeSlot = make([]int, s)
		for i := range st.routeSlot {
			st.routeSlot[i] = int(r.Varint())
		}
		st.replicaSlot = make([]int, s)
		for i := range st.replicaSlot {
			st.replicaSlot[i] = int(r.Varint())
		}
		st.checkIndices(r)
		st.snaps = make([]roundSnap, s)
		for i := range st.snaps {
			if r.Bool() {
				st.snaps[i] = roundSnap{closes: r.Uvarint(), data: r.Blob()}
				if st.snaps[i].data == nil {
					st.snaps[i].data = []byte{}
				}
			}
		}
		st.closes = make([]uint64, s)
		for i := range st.closes {
			st.closes[i] = r.Uvarint()
		}
		for i, n := 0, r.Len(); i < n && r.Err() == nil; i++ {
			st.closeLog = append(st.closeLog, closePt{
				t:   stream.Time(r.Varint()),
				seq: r.Uvarint(),
			})
		}
		st.hostSeq = int(r.Varint())
		st.placeVer = r.Uvarint()
		st.movedRanges = r.Uvarint()
		st.rebalances = r.Uvarint()
		st.part = r.Blob()
		st.head = r.Blob()
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("router state blob: %w", err)
	}
	return st, nil
}

// checkIndices fails r unless every index the recovery path dereferences is
// in range: slot-table entries name a roster link or -1 (none), and roster
// homes name a slot or -1 (a joiner never given one).
func (st *routerState) checkIndices(r *snap.Reader) {
	for i, re := range st.roster {
		if re.home < -1 || re.home >= st.nslots {
			r.Fail("router state: roster entry %d has home slot %d of %d", i, re.home, st.nslots)
		}
	}
	links := func(table string, slots []int) {
		for slot, li := range slots {
			if li < -1 || li >= len(st.roster) {
				r.Fail("router state: %s slot %d names link %d of %d", table, slot, li, len(st.roster))
			}
		}
	}
	links("route", st.routeSlot)
	links("replica", st.replicaSlot)
}

// loadNewestState returns the decoded highest-epoch blob, or nil with no
// error when the store is empty (a fresh start).
func loadNewestState(store server.Store) (*routerState, error) {
	epochs, err := store.List()
	if err != nil {
		return nil, err
	}
	if len(epochs) == 0 {
		return nil, nil
	}
	newest := epochs[0]
	for _, e := range epochs[1:] {
		if e > newest {
			newest = e
		}
	}
	data, err := store.Get(newest)
	if err != nil {
		return nil, err
	}
	st, err := decodeRouterState(data)
	if err != nil {
		return nil, fmt.Errorf("epoch %d: %w", newest, err)
	}
	return st, nil
}

// persistState (ckptMu held, routing paused, round committed) captures the
// router's state and writes it to the store as one atomic blob. routeMu and
// headMu are taken here — a concurrent link death mutates the tables, and
// the pause only stalls routing, not failover.
func (r *Router) persistState(ep *repoch, id uint64) error {
	st := &routerState{
		ckpt:    id,
		nslots:  r.nslots,
		weights: r.weights,
	}
	r.routeMu.Lock()
	st.n = ep.n
	st.routedSeq = ep.routedSeq.Load()
	st.routeSlot = append([]int(nil), r.routeSlot...)
	st.replicaSlot = append([]int(nil), r.replicaSlot...)
	st.snaps = append([]roundSnap(nil), r.slotSnaps...)
	for _, l := range r.links {
		st.roster = append(st.roster, rosterEntry{
			addr:   l.addr,
			home:   l.slot,
			member: l.member,
			alive:  l.alive.Load(),
		})
	}
	st.hostSeq = r.hostSeq
	st.placeVer = r.placeVer.Load()
	st.movedRanges = r.movedRanges.Load()
	st.rebalances = r.rebalances.Load()
	r.headMu.Lock()
	st.alerts = ep.alerts.Load()
	st.closes = append([]uint64(nil), ep.closes...)
	st.closeLog = append([]closePt(nil), ep.closeLog...)
	var err error
	if snapper, ok := ep.part.(stream.Snapshotter); ok {
		st.part, err = snapper.Snapshot()
	} else {
		err = errors.New("partition operator is not snapshottable")
	}
	if err == nil {
		st.head, err = ep.head.Checkpoint()
	}
	r.headMu.Unlock()
	r.routeMu.Unlock()
	if err != nil {
		return err
	}
	return r.cfg.Store.Put(ep.n, st.encode())
}

// recoverLinks (from New, before any goroutine runs) rebuilds the link set
// and placement ring from a recovered blob and rewinds every reachable
// worker to the blob's cut with a reset composite. Unreachable live-roster
// workers come back as stub links (conn nil, alive) for the caller to fail
// over once the epoch is restored; dead-roster entries become inert
// placeholders so link indices keep their meaning.
func (r *Router) recoverLinks(blob *routerState) ([]*link, error) {
	r.routeSlot = append(r.routeSlot[:0], blob.routeSlot...)
	r.replicaSlot = append(r.replicaSlot[:0], blob.replicaSlot...)
	copy(r.slotSnaps, blob.snaps)
	r.hostSeq = blob.hostSeq
	r.placeVer.Store(blob.placeVer)
	r.movedRanges.Store(blob.movedRanges)
	r.rebalances.Store(blob.rebalances)

	slotBlob := func(slot int) server.SlotBlob {
		sb := server.SlotBlob{Slot: slot}
		if sn := blob.snaps[slot]; sn.present() {
			sb.Closes = sn.closes
			sb.Data = sn.data
		}
		return sb
	}

	var stubs []*link
	for i, re := range blob.roster {
		if !re.alive {
			// Dead at the cut: keep the index occupied, nothing to dial.
			l := &link{idx: i, slot: re.home, addr: re.addr,
				sendq: server.NewQueueOf[[]byte](r.cfg.SendBuffer, server.Block)}
			l.sendq.Close()
			r.links = append(r.links, l)
			continue
		}
		r.place.Add(ring.Member{ID: re.member})
		r.memberLink[re.member] = i
		rb := &server.ResetBlob{Ckpt: blob.ckpt}
		if re.home >= 0 && re.home < r.nslots && blob.routeSlot[re.home] == i {
			own := slotBlob(re.home)
			rb.Own = &own
		}
		for slot, li := range blob.routeSlot {
			if li == i && slot != re.home {
				rb.Insts = append(rb.Insts, slotBlob(slot))
			}
		}
		for slot, ri := range blob.replicaSlot {
			if ri == i && blob.snaps[slot].present() {
				rb.Reps = append(rb.Reps, slotBlob(slot))
			}
		}
		l, err := r.dialWorker(re.home, re.addr, rb)
		if err != nil {
			// Unreachable: a stub the caller fails over after the epoch
			// restore (its slots then promote or degrade normally).
			l = &link{conn: nil,
				sendq: server.NewQueueOf[[]byte](r.cfg.SendBuffer, server.Block)}
			l.alive.Store(true)
			stubs = append(stubs, l)
		}
		l.idx = i
		l.slot = re.home
		l.member = re.member
		l.addr = re.addr
		r.links = append(r.links, l)
	}
	// lastSnap names installs the blob can still vouch for: the snapshot is
	// in the blob and its replica assignment survived to the cut.
	for slot := range r.replicaSlot {
		ri := r.replicaSlot[slot]
		if ri >= 0 && blob.snaps[slot].present() && r.links[ri].alive.Load() {
			r.lastSnap[slot].Store(blob.ckpt)
		}
	}
	r.routeMu.Lock()
	r.recomputeHealthLocked()
	r.routeMu.Unlock()
	return stubs, nil
}

// restoreEpochLocked (headMu held, fresh epoch just built) rewinds the
// router's stream state to the blob's cut.
func (r *Router) restoreEpochLocked(blob *routerState) error {
	ep := r.ep
	snapper, ok := ep.part.(stream.Snapshotter)
	if !ok {
		return errors.New("partition operator is not snapshottable")
	}
	if err := snapper.Restore(blob.part); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	if err := ep.head.RestoreFrom(blob.head); err != nil {
		return fmt.Errorf("head graph: %w", err)
	}
	copy(ep.closes, blob.closes)
	ep.closeLog = append([]closePt(nil), blob.closeLog...)
	ep.alerts.Store(blob.alerts)
	r.alerts.Store(blob.alerts)
	ep.routedSeq.Store(blob.routedSeq)
	ep.n = blob.n
	r.epochs = blob.n + 1
	r.ckptSeq.Store(blob.ckpt)
	return nil
}
