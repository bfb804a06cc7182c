package router

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/server"
)

// Cluster checkpoint rounds. A round pauses routing (a quiesced cut), asks
// every live worker to snapshot each slot it hosts ("ckpt"), then installs
// each slot's snapshot on the slot's replica ("snap"). Once a snap_ack
// confirms the install, the replica has trimmed its replay tail to the
// post-checkpoint suffix, and a later promotion restores snapshot + suffix
// instead of replaying the whole epoch. The wire does the sequencing: the
// ckpt line rides each link's send queue after every tuple it must cover,
// and the worker marks its tails before snapshotting, so tail-trim points
// and snapshots agree.
//
// Because each worker's ckpt_ack rides the same FIFO connection as its part
// frames — and the worker snapshots only after draining its ingest queue —
// a completed round leaves the router having merged *everything* the cut
// covers: per-slot merged-close counts equal the workers' emitted-close
// ordinals, and no partials are pending. That uniform cut is what makes the
// round a safe point to persist the router's own state (Config.Store) and
// to migrate slots between hosts (membership changes reuse quiescedRound).

// roundSnap is one slot's snapshot from a completed round: the plan
// checkpoint bytes and the window-close count it covers.
type roundSnap struct {
	closes uint64
	data   []byte
}

// ckptLoop drives periodic rounds.
func (r *Router) ckptLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.CkptEvery)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			if err := r.clusterCheckpoint(); err != nil {
				r.ckptErrs.Add(1)
			}
		}
	}
}

// clusterCheckpoint runs one round and waits for it to settle.
func (r *Router) clusterCheckpoint() error {
	if r.cfg.Replicas < 2 && r.cfg.Store == nil {
		return errors.New("checkpointing needs -replicas 2 or a router -data-dir (nothing to install or persist)")
	}
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	ep := r.epoch()
	if ep == nil || ep.ended.Load() {
		return errors.New("no stream running")
	}
	r.pause()
	defer r.unpause()
	id := r.ckptSeq.Add(1)
	snaps, err := r.quiescedRound(ep, id)
	if err != nil {
		return err
	}
	r.commitRound(ep, id, snaps)
	r.ckptN.Add(1)
	return nil
}

// quiescedRound (ckptMu held, routing paused) runs one snapshot round and
// returns each live slot's snapshot. The ckpt line goes to every live link —
// links serving no slot still mark their replica tails, so a later install
// trims them at the same cut.
func (r *Router) quiescedRound(ep *repoch, id uint64) (map[int]roundSnap, error) {
	cr := &ckptRound{
		id:       id,
		ackNeed:  map[int]bool{},
		snapNeed: map[int]bool{},
		snaps:    map[int]roundSnap{},
		done:     make(chan struct{}),
	}
	line, err := server.EncodeLine(server.Msg{Kind: server.KindCkpt, Ckpt: id})
	if err != nil {
		return nil, err
	}
	r.round.Store(cr)
	defer r.round.Store(nil)
	r.routeMu.Lock()
	cr.mu.Lock()
	for slot, li := range r.routeSlot {
		if li >= 0 && r.links[li].alive.Load() {
			cr.ackNeed[slot] = true
		}
	}
	cr.mu.Unlock()
	if len(cr.ackNeed) == 0 {
		r.routeMu.Unlock()
		return nil, errors.New("no live workers")
	}
	for _, l := range r.links {
		if !l.alive.Load() {
			continue
		}
		if err := l.sendq.Put(r.ctx, line); err != nil && r.ctx.Err() == nil {
			r.failLinkLocked(l)
		}
	}
	r.routeMu.Unlock()
	select {
	case <-cr.done:
	case <-r.ctx.Done():
		return nil, r.ctx.Err()
	case <-time.After(30 * time.Second):
		return nil, errors.New("cluster checkpoint timed out")
	}
	cr.mu.Lock()
	err = cr.err
	snaps := cr.snaps
	cr.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return snaps, nil
}

// commitRound (ckptMu held, routing paused) records the round's snapshots,
// re-acquires replicas for slots that lost theirs, and — with a Store —
// persists the router's own state at the same cut.
func (r *Router) commitRound(ep *repoch, id uint64, snaps map[int]roundSnap) {
	r.routeMu.Lock()
	for slot := range r.slotSnaps {
		r.slotSnaps[slot] = snaps[slot]
	}
	if r.cfg.Replicas >= 2 {
		r.recomputeReplicasLocked(id, snaps)
	}
	r.routeMu.Unlock()
	if r.cfg.Store != nil && !r.crashed.Load() {
		if err := r.persistState(ep, id); err != nil {
			r.ckptErrs.Add(1)
		}
	}
}

// recomputeReplicasLocked (routeMu held, at a quiesced cut with this
// round's snapshots in hand) assigns a replica to every served slot that
// lost one — a failover consumed it, or its host died — walking the
// placement ring's successors. The fresh snapshot install starts the new
// replica's tail exactly at the cut, so promote-from-replica stays exact.
func (r *Router) recomputeReplicasLocked(id uint64, snaps map[int]roundSnap) {
	for slot, li := range r.routeSlot {
		if li < 0 {
			r.replicaSlot[slot] = -1
			continue
		}
		cur := r.replicaSlot[slot]
		if cur >= 0 && cur != li && r.links[cur].alive.Load() {
			continue // in-round install already refreshed it
		}
		r.replicaSlot[slot] = -1
		for _, member := range r.place.Successors(int64(slot), r.place.Len()) {
			idx, ok := r.memberLink[member]
			if !ok || idx == li || !r.links[idx].alive.Load() {
				continue
			}
			// A host never replicates its own home slot: its tails cover
			// every slot but that one.
			if r.links[idx].slot == slot {
				continue
			}
			sn, hasSnap := snaps[slot]
			if !hasSnap {
				// No cut snapshot to seed the candidate's tail — assigning
				// it anyway would leave a tail missing its prefix. Leave
				// the slot unreplicated until a round that covers it.
				break
			}
			s := slot
			line, err := server.EncodeLine(server.Msg{
				Kind:   server.KindSnap,
				Shard:  &s,
				Ckpt:   id,
				Closes: sn.closes,
				Data:   sn.data,
			})
			if err != nil {
				r.encodeErrs.Add(1)
				break
			}
			if r.links[idx].sendq.Put(r.ctx, line) == nil {
				// FIFO: the install lands before any later promote that
				// names it, so recording it now is safe.
				r.replicaSlot[slot] = idx
				r.lastSnap[slot].Store(id)
			}
			break
		}
	}
}

// onCkptAck (link reader) retains one slot's snapshot for the round and
// forwards it to the slot's replica, or completes the slot if it has none
// to install on.
func (r *Router) onCkptAck(l *link, m server.Msg) {
	cr := r.round.Load()
	if cr == nil || m.Shard == nil || m.Ckpt == 0 {
		return
	}
	slot := *m.Shard
	if slot < 0 || slot >= r.nslots {
		return // a slotless joiner's own-plan ack; nothing tracks it
	}
	// Read the topology before taking the round lock: failover holds
	// routeMu while aborting rounds, so cr.mu must never wait on routeMu.
	// The replica's link pointer is captured here too — joins grow the
	// slice, so indexing it is only safe under routeMu.
	r.routeMu.Lock()
	rep := r.replicaSlot[slot]
	serving := r.routeSlot[slot]
	var repLink *link
	if rep >= 0 {
		repLink = r.links[rep]
	}
	r.routeMu.Unlock()
	cr.mu.Lock()
	if m.Ckpt != cr.id || !cr.ackNeed[slot] {
		cr.mu.Unlock()
		return
	}
	delete(cr.ackNeed, slot)
	cr.snaps[slot] = roundSnap{closes: m.Closes, data: m.Data}
	// Install on the replica — unless the replica is the very link hosting
	// the slot (post-failover), or it is gone.
	if repLink == nil || rep == serving || !repLink.alive.Load() {
		cr.finishLocked()
		cr.mu.Unlock()
		return
	}
	snap := server.Msg{
		Kind:   server.KindSnap,
		Shard:  m.Shard,
		Ckpt:   m.Ckpt,
		Closes: m.Closes,
		Data:   m.Data,
	}
	line, err := server.EncodeLine(snap)
	if err != nil {
		r.encodeErrs.Add(1)
		cr.finishLocked()
		cr.mu.Unlock()
		return
	}
	cr.snapNeed[slot] = true
	cr.mu.Unlock()
	if err := repLink.sendq.Put(r.ctx, line); err != nil {
		cr.mu.Lock()
		delete(cr.snapNeed, slot)
		cr.finishLocked()
		cr.mu.Unlock()
	}
}

// onSnapAck records a confirmed install: from here on, a promotion of this
// slot names this checkpoint.
func (r *Router) onSnapAck(m server.Msg) {
	cr := r.round.Load()
	if cr == nil || m.Shard == nil {
		return
	}
	slot := *m.Shard
	if slot < 0 || slot >= r.nslots {
		return
	}
	cr.mu.Lock()
	if m.Ckpt == cr.id && cr.snapNeed[slot] {
		delete(cr.snapNeed, slot)
		r.lastSnap[slot].Store(m.Ckpt)
		cr.finishLocked()
	}
	cr.mu.Unlock()
}

// failRound aborts an in-flight round when a worker dies: acks still
// outstanding may never come (the dead link's, or a just-redirected
// slot's), so the round fails fast instead of stalling to the timeout. The
// next round covers the new topology; lastSnap keeps only acked installs.
func (r *Router) failRound(l *link) {
	cr := r.round.Load()
	if cr == nil {
		return
	}
	cr.mu.Lock()
	if len(cr.ackNeed)+len(cr.snapNeed) > 0 {
		cr.err = fmt.Errorf("worker %d died mid-checkpoint", l.idx)
		cr.ackNeed = map[int]bool{}
		cr.snapNeed = map[int]bool{}
	}
	cr.finishLocked()
	cr.mu.Unlock()
}
