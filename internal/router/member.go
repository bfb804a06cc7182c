package router

import (
	"errors"
	"fmt"

	"repro/internal/ring"
	"repro/internal/server"
)

// Live membership. Joins and leaves happen at epoch boundaries in the
// checkpoint sense: the change takes effect at a quiesced cut (the same
// pause-and-snapshot round ckpt.go runs), so every migrated slot moves with
// a snapshot taken at the cut and an aligned promote — the subscriber's
// alert stream is byte-identical to a run where the slot never moved.
//
// The key ring (slots) never changes; only the placement ring does. A join
// migrates exactly the slots ring.Rebalance hands the newcomer — plus every
// degraded slot, which has no host at all and takes the joiner as its new
// home (fresh instance, merge-floor aligned). A leave migrates exactly the
// leaver's slots to their new placement owners. Everything else stays put.

// admitWorker dials addr, joins it into the cluster at a quiesced cut, and
// migrates its ring share (and every degraded slot) onto it. Called from a
// client connection's "join" line.
func (r *Router) admitWorker(addr string) error {
	if r.ctx.Err() != nil {
		return errors.New("router shutting down")
	}
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	r.routeMu.Lock()
	for _, l := range r.links {
		if l.alive.Load() && l.addr == addr {
			r.routeMu.Unlock()
			return fmt.Errorf("worker %s already joined", addr)
		}
	}
	r.routeMu.Unlock()
	// Dial and handshake before pausing anyone: a slow or broken joiner
	// must not stall the stream. The empty reset clears any orphaned epoch
	// the worker may still be running.
	l, err := r.dialWorker(-1, addr, &server.ResetBlob{})
	if err != nil {
		return err
	}
	reject := func(err error) error {
		l.sendq.Close()
		l.conn.Close()
		return err
	}
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	ep := r.epoch()
	if ep == nil || ep.ended.Load() {
		return reject(errors.New("stream draining; retry join"))
	}
	r.pause()
	defer r.unpause()
	id := r.ckptSeq.Add(1)
	snaps, err := r.quiescedRound(ep, id)
	if err != nil {
		return reject(fmt.Errorf("join aborted: %w", err))
	}
	r.routeMu.Lock()
	l.idx = len(r.links)
	l.member = hostID(r.hostSeq)
	r.hostSeq++
	r.links = append(r.links, l)
	r.memberLink[l.member] = l.idx
	old := r.clonePlace()
	r.place.Add(ring.Member{ID: l.member})
	r.placeVer.Store(r.placeVer.Load() + 1)
	rebal := ring.Rebalance(old, r.place)
	r.movedRanges.Store(uint64(len(rebal)))
	r.rebalances.Add(1)
	var moved []int
	for slot := 0; slot < r.nslots; slot++ {
		if r.routeSlot[slot] < 0 {
			// Degraded: the joiner re-homes it (fresh instance, aligned to
			// the merge floor). This is what clears degraded mode.
			moved = append(moved, slot)
			continue
		}
		owner, ok := r.place.Owner(int64(slot))
		if !ok || owner != l.member {
			continue
		}
		if prev, _ := old.Owner(int64(slot)); prev != owner {
			moved = append(moved, slot)
		}
	}
	for _, slot := range moved {
		var sn roundSnap
		var cid uint64
		if r.routeSlot[slot] >= 0 {
			sn, cid = snaps[slot], id
		}
		r.migrateSlotLocked(ep, slot, l.idx, cid, sn)
	}
	r.lastMoved = append([]int(nil), moved...)
	for s := range r.slotSnaps {
		r.slotSnaps[s] = snaps[s]
	}
	if r.cfg.Replicas >= 2 {
		r.recomputeReplicasLocked(id, snaps)
	}
	r.recomputeHealthLocked()
	r.routeMu.Unlock()
	if r.cfg.Store != nil && !r.crashed.Load() {
		if err := r.persistState(ep, id); err != nil {
			r.ckptErrs.Add(1)
		}
	}
	r.startLink(l)
	return nil
}

// migrateSlotLocked (routeMu held, at a quiesced cut) moves one slot to the
// link at dest: install the cut's snapshot (when the slot has one), promote
// the destination aligned to the router's merge floor, release the old
// host, and flip the serving table. FIFO queues do the sequencing — no acks
// are waited on; the destination processes install before promote before
// any post-cut tuple.
func (r *Router) migrateSlotLocked(ep *repoch, slot, dest int, ckptID uint64, sn roundSnap) {
	old := r.routeSlot[slot]
	s := slot
	dl := r.links[dest]
	if sn.present() {
		line, err := server.EncodeLine(server.Msg{
			Kind:   server.KindSnap,
			Shard:  &s,
			Ckpt:   ckptID,
			Closes: sn.closes,
			Data:   sn.data,
		})
		if err != nil {
			r.encodeErrs.Add(1)
			return
		}
		if dl.sendq.Put(r.ctx, line) != nil {
			return // dest died; the slot keeps its old host (or stays degraded)
		}
	}
	var floor uint64
	if ep != nil {
		r.headMu.Lock()
		floor = ep.closes[slot]
		r.headMu.Unlock()
	}
	promote := server.Msg{
		Kind:   server.KindPromote,
		Shard:  &s,
		Closes: floor,
		Ckpt:   ckptID,
		Align:  true,
	}
	line, err := server.EncodeLine(promote)
	if err != nil {
		r.encodeErrs.Add(1)
		return
	}
	if dl.sendq.Put(r.ctx, line) != nil {
		return
	}
	if old >= 0 && old != dest && r.links[old].alive.Load() {
		if rl, err := server.EncodeLine(server.Msg{Kind: server.KindRelease, Shard: &s}); err == nil {
			r.links[old].sendq.Put(r.ctx, rl)
		} else {
			r.encodeErrs.Add(1)
		}
	}
	r.routeSlot[slot] = dest
	if r.replicaSlot[slot] == dest {
		// The new host can't be its own replica; a recompute reassigns.
		r.replicaSlot[slot] = -1
		r.lastSnap[slot].Store(0)
	}
}

// removeWorker handles a graceful departure ("leave"): at a quiesced cut,
// the leaver's slots migrate to their new placement owners with the cut's
// snapshots, then the link retires. Called from the leaver's link reader
// (async) or a client "leave" line.
func (r *Router) removeWorker(l *link) {
	if r.ctx.Err() != nil {
		return
	}
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	if !l.alive.Load() {
		return
	}
	r.routeMu.Lock()
	live := 0
	for _, x := range r.links {
		if x.alive.Load() {
			live++
		}
	}
	r.routeMu.Unlock()
	if live <= 1 {
		return // the last worker has nowhere to hand its slots; ignore
	}
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	ep := r.epoch()
	if ep == nil || ep.ended.Load() {
		// Mid-drain departure: the ordinary failover path promotes its
		// slots and keeps the drain accounting right.
		r.failLink(l)
		return
	}
	r.pause()
	defer r.unpause()
	id := r.ckptSeq.Add(1)
	snaps, err := r.quiescedRound(ep, id)
	if err != nil {
		r.failLink(l) // round broken — treat the departure as a death
		return
	}
	r.routeMu.Lock()
	if !l.alive.Load() {
		r.routeMu.Unlock()
		return // died during the round; failover already ran
	}
	old := r.clonePlace()
	r.place.Remove(l.member)
	delete(r.memberLink, l.member)
	r.placeVer.Store(r.placeVer.Load() + 1)
	rebal := ring.Rebalance(old, r.place)
	r.movedRanges.Store(uint64(len(rebal)))
	r.rebalances.Add(1)
	var moved []int
	for slot := 0; slot < r.nslots; slot++ {
		if r.routeSlot[slot] != l.idx {
			continue
		}
		dest := -1
		if owner, ok := r.place.Owner(int64(slot)); ok {
			if oi, ok := r.memberLink[owner]; ok && r.links[oi].alive.Load() {
				dest = oi
			}
		}
		if dest < 0 {
			for _, x := range r.links {
				if x.alive.Load() && x.idx != l.idx {
					dest = x.idx
					break
				}
			}
		}
		if dest < 0 {
			continue
		}
		r.migrateSlotLocked(ep, slot, dest, id, snaps[slot])
		moved = append(moved, slot)
	}
	r.lastMoved = append([]int(nil), moved...)
	for s := range r.slotSnaps {
		r.slotSnaps[s] = snaps[s]
	}
	// Retire the link. The release line and close frames just queued still flush:
	// the sender drains the buffered queue before exiting.
	l.alive.Store(false)
	l.sendq.Close()
	if l.conn != nil {
		l.conn.Close()
	}
	for slot, rep := range r.replicaSlot {
		if rep == l.idx {
			r.replicaSlot[slot] = -1
			r.lastSnap[slot].Store(0)
		}
	}
	if r.cfg.Replicas >= 2 {
		r.recomputeReplicasLocked(id, snaps)
	}
	r.recomputeHealthLocked()
	r.routeMu.Unlock()
	if r.cfg.Store != nil && !r.crashed.Load() {
		if err := r.persistState(ep, id); err != nil {
			r.ckptErrs.Add(1)
		}
	}
}
