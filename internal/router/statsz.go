package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/server"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// MemberStatsz is one ring member's row.
type MemberStatsz struct {
	ID     string  `json:"id"`
	Slot   int     `json:"slot"`
	Weight int     `json:"weight"`
	Share  float64 `json:"share"`
}

// SlotStatsz is one logical slot's serving row.
type SlotStatsz struct {
	Slot int `json:"slot"`
	// Owner / Replica are link indices into the workers array (-1: none).
	Owner    int  `json:"owner"`
	Replica  int  `json:"replica"`
	Degraded bool `json:"degraded"`
}

// RingStatsz is the /statsz ring section. Version counts placement
// membership changes (joins, leaves, deaths); MovedRanges and MovedSlots
// describe the last rebalance; Slots maps every logical slot to the link
// serving it.
type RingStatsz struct {
	Version     uint64         `json:"version"`
	Vnodes      int            `json:"vnodes"`
	Rebalances  uint64         `json:"rebalances"`
	MovedRanges uint64         `json:"moved_ranges"`
	MovedSlots  []int          `json:"moved_slots,omitempty"`
	Slots       []SlotStatsz   `json:"slots,omitempty"`
	Members     []MemberStatsz `json:"members"`
}

// WorkerStatsz is one worker link's row.
type WorkerStatsz struct {
	// Slot is the worker's home slot from its join (-1: a mid-stream
	// joiner with no home slot).
	Slot int `json:"slot"`
	// Member is the host's placement-ring id (empty once it left the ring).
	Member string `json:"member,omitempty"`
	Addr   string `json:"addr"`
	Alive  bool   `json:"alive"`
	// LastSeenMS is how long ago the last line arrived from this worker
	// (pong or any traffic), in milliseconds; -1 before first contact.
	LastSeenMS int64 `json:"last_seen_ms"`
	// Version is the ring version the worker last echoed on pong.
	Version    uint64            `json:"version"`
	Routed     uint64            `json:"routed"`
	Replicated uint64            `json:"replicated"`
	SendQueue  server.QueueStats `json:"send_queue"`
	// ServesSlots lists the logical slots this link currently serves
	// (normally its own; more after failovers promoted it).
	ServesSlots []int `json:"serves_slots,omitempty"`
}

// Statsz is the router's /statsz report.
type Statsz struct {
	UptimeS      float64        `json:"uptime_s"`
	Epoch        int            `json:"epoch"`
	Ingested     uint64         `json:"ingested"`
	IngestErrors uint64         `json:"ingest_errors"`
	EncodeErrors uint64         `json:"encode_errors"`
	WorkerErrors uint64         `json:"worker_errors"`
	Alerts       uint64         `json:"alerts"`
	TuplesPerS   float64        `json:"tuples_per_s"`
	Subscribers  int            `json:"subscribers"`
	SubDropped   uint64         `json:"sub_dropped"`
	Replicas     int            `json:"replicas"`
	Failovers    uint64         `json:"failovers"`
	Degraded     bool           `json:"degraded"`
	Checkpoints  uint64         `json:"checkpoints"`
	CkptErrors   uint64         `json:"ckpt_errors"`
	Ring         RingStatsz     `json:"ring"`
	Workers      []WorkerStatsz `json:"workers"`
	// Closes is the per-slot count of window closes merged this epoch.
	Closes []uint64 `json:"closes,omitempty"`
	// Conns reports per-client-connection wire counters (negotiated
	// protocol, lines/frames in, bytes both ways).
	Conns []server.ConnStatsz `json:"conns,omitempty"`
}

// Stats snapshots the router for monitoring.
func (r *Router) Stats() Statsz {
	up := time.Since(r.start).Seconds()
	st := Statsz{
		UptimeS:      up,
		Ingested:     r.ingested.Load(),
		IngestErrors: r.ingestErrs.Load(),
		EncodeErrors: r.encodeErrs.Load(),
		WorkerErrors: r.workerErrs.Load(),
		Alerts:       r.alerts.Load(),
		Subscribers:  r.hub.Count(),
		SubDropped:   r.hub.Dropped(),
		Replicas:     r.cfg.Replicas,
		Failovers:    r.failovers.Load(),
		Degraded:     r.degraded.Load(),
		Checkpoints:  r.ckptN.Load(),
		CkptErrors:   r.ckptErrs.Load(),
	}
	if up > 0 {
		st.TuplesPerS = float64(st.Ingested) / up
	}
	st.Ring = RingStatsz{
		Version:     r.placeVer.Load(),
		Vnodes:      r.ring.Vnodes(),
		Rebalances:  r.rebalances.Load(),
		MovedRanges: r.movedRanges.Load(),
	}
	spread := r.ring.Spread()
	for _, m := range r.ring.Members() {
		st.Ring.Members = append(st.Ring.Members, MemberStatsz{
			ID:     m.ID,
			Slot:   r.slotOf[m.ID],
			Weight: m.Weight,
			Share:  spread[m.ID],
		})
	}
	r.routeMu.Lock()
	st.Ring.MovedSlots = append([]int(nil), r.lastMoved...)
	serves := make(map[int][]int, len(r.links))
	for slot, li := range r.routeSlot {
		if li >= 0 {
			serves[li] = append(serves[li], slot)
		}
		st.Ring.Slots = append(st.Ring.Slots, SlotStatsz{
			Slot:     slot,
			Owner:    li,
			Replica:  r.replicaSlot[slot],
			Degraded: li < 0,
		})
	}
	// Snapshot the link slice under the lock: joins append to it.
	links := append([]*link(nil), r.links...)
	members := make([]string, len(links))
	for i, l := range links {
		members[i] = l.member
	}
	r.routeMu.Unlock()
	now := time.Now().UnixMilli()
	for i, l := range links {
		row := WorkerStatsz{
			Slot:        l.slot,
			Member:      members[i],
			Addr:        l.addr,
			Alive:       l.alive.Load(),
			LastSeenMS:  -1,
			Version:     l.version.Load(),
			Routed:      l.routed.Load(),
			Replicated:  l.replicated.Load(),
			SendQueue:   l.sendq.Stats(),
			ServesSlots: serves[i],
		}
		if seen := l.lastSeen.Load(); seen > 0 {
			row.LastSeenMS = now - seen
		}
		st.Workers = append(st.Workers, row)
	}
	r.headMu.Lock()
	if r.ep != nil {
		st.Epoch = r.ep.n
		st.Closes = append([]uint64(nil), r.ep.closes...)
	}
	r.headMu.Unlock()
	r.mu.Lock()
	for c := range r.conns {
		st.Conns = append(st.Conns, c.Statsz())
	}
	r.mu.Unlock()
	sort.Slice(st.Conns, func(i, j int) bool { return st.Conns[i].Remote < st.Conns[j].Remote })
	return st
}

func (r *Router) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Stats())
}
