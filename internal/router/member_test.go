package router

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/server"
)

// The tests in this file pin live membership: a worker joining mid-stream
// takes over exactly the slots ring.Rebalance hands it — byte-identically —
// and a cluster that lost a slot entirely (owner and replica both dead)
// keeps serving the surviving slots in degraded mode until a replacement
// join re-homes the lost slot and clears the flag.

// startWorker boots one additional worker server compatible with the
// running cluster.
func startWorker(t *testing.T, cl *cluster) *server.Server {
	t.Helper()
	plan := routerPlan(t, clusterQ1Cfg())
	s, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		NewPlan:    plan.CompileWorker,
		FlushEvery: 10 * time.Millisecond,
		Cluster:    true,
	})
	if err != nil {
		t.Fatalf("extra worker: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	cl.workers = append(cl.workers, s)
	return s
}

// offerJoin sends a {"kind":"join","addr":...} offer on a client connection
// and waits for the ack.
func offerJoin(t *testing.T, rt *Router, addr string) server.Msg {
	t.Helper()
	c := dialRouter(t, rt)
	c.send(server.Msg{Kind: server.KindJoin, Addr: addr})
	m := c.recv(60 * time.Second)
	if m.Kind != server.KindOK {
		t.Fatalf("join offer: got %+v", m)
	}
	return m
}

// expectedJoinMoves replicates the router's placement arithmetic: with
// hosts h0..h{n-1} and h{n} joining, the slots that must move are exactly
// those whose placement owner becomes the newcomer.
func expectedJoinMoves(slots, hosts int) []int {
	old := ring.New(0)
	for i := 0; i < hosts; i++ {
		old.Add(ring.Member{ID: hostID(i)})
	}
	cur := ring.New(0)
	for i := 0; i <= hosts; i++ {
		cur.Add(ring.Member{ID: hostID(i)})
	}
	joiner := hostID(hosts)
	var moved []int
	for s := 0; s < slots; s++ {
		oo, _ := old.Owner(int64(s))
		no, _ := cur.Owner(int64(s))
		if no == joiner && oo != no {
			moved = append(moved, s)
		}
	}
	return moved
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterJoinMidStream: a third worker joins a live 2-worker, 10-slot
// stream. Exactly the ring.Rebalance-diff slots migrate onto it, the
// placement version bumps, and the drained alert stream is byte-identical
// to the offline reference.
func TestRouterJoinMidStream(t *testing.T) {
	const slots = 10
	wantMoved := expectedJoinMoves(slots, 2)
	if len(wantMoved) == 0 {
		t.Fatal("test geometry gives the joiner no slots; pick a different slot count")
	}
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}
	cl := startCluster(t, 2, cfg, func(c *Config) { c.Slots = slots })
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	verBefore := cl.rt.Stats().Ring.Version

	half := len(msgs) / 2
	for _, m := range msgs[:half] {
		ingest.send(m)
	}
	joiner := startWorker(t, cl)
	ack := offerJoin(t, cl.rt, joiner.Addr().String())
	if ack.Version != verBefore+1 {
		t.Errorf("join ack version %d, want %d", ack.Version, verBefore+1)
	}
	for _, m := range msgs[half:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "join-mid-stream")

	st := cl.rt.Stats()
	if st.Ring.Version != verBefore+1 {
		t.Errorf("ring version %d, want %d", st.Ring.Version, verBefore+1)
	}
	if st.Ring.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", st.Ring.Rebalances)
	}
	if st.Ring.MovedRanges == 0 {
		t.Error("moved_ranges = 0, want the last rebalance's diff size")
	}
	if !sameInts(st.Ring.MovedSlots, wantMoved) {
		t.Errorf("moved slots %v, want exactly the rebalance diff %v", st.Ring.MovedSlots, wantMoved)
	}
	if len(st.Workers) != 3 {
		t.Fatalf("statsz reports %d workers, want 3", len(st.Workers))
	}
	if !sameInts(st.Workers[2].ServesSlots, wantMoved) {
		t.Errorf("joiner serves %v, want %v", st.Workers[2].ServesSlots, wantMoved)
	}
	for _, row := range st.Ring.Slots {
		if row.Degraded || row.Owner < 0 {
			t.Errorf("slot %d unserved after join: %+v", row.Slot, row)
		}
	}
	if st.Degraded {
		t.Error("degraded after a clean join")
	}
}

// TestRouterDegradedLossAndRecovery is the total-loss drill: kill a slot's
// replica, then its owner. The surviving slots keep alerting (degraded
// mode, documented as lossy for the dead slot), /statsz names the lost
// slot, and a replacement join re-homes it and clears the flag.
func TestRouterDegradedLossAndRecovery(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	cl := startCluster(t, 3, cfg, func(c *Config) { c.Replicas = 2 })
	sub := subscribe(t, cl.rt)
	got := make(chan []string, 1)
	go drainAlerts(t, sub, got)
	ingest := dialRouter(t, cl.rt)

	third := len(msgs) / 3
	for _, m := range msgs[:third] {
		ingest.send(m)
	}

	// Pick a victim slot and kill its replica first, then its owner: no
	// copy of the slot's state survives.
	st := cl.rt.Stats()
	victim := st.Ring.Slots[0]
	if victim.Replica < 0 || victim.Replica == victim.Owner {
		t.Fatalf("slot 0 has no distinct replica: %+v", victim)
	}
	cl.workers[victim.Replica].Crash()
	waitStats(t, cl.rt, func(s Statsz) bool { return !s.Workers[victim.Replica].Alive })
	cl.workers[victim.Owner].Crash()
	waitStats(t, cl.rt, func(s Statsz) bool { return s.Degraded })

	st = cl.rt.Stats()
	if !st.Ring.Slots[victim.Slot].Degraded {
		t.Errorf("slot %d not marked degraded: %+v", victim.Slot, st.Ring.Slots)
	}

	// The surviving worker's slots keep flowing.
	for _, m := range msgs[third : 2*third] {
		ingest.send(m)
	}

	// A replacement joins; the lost slot re-homes (fresh state — its
	// windows since the loss are gone, by contract) and degraded clears.
	repl := startWorker(t, cl)
	offerJoin(t, cl.rt, repl.Addr().String())
	st = cl.rt.Stats()
	if st.Degraded {
		t.Error("still degraded after replacement join")
	}
	for _, row := range st.Ring.Slots {
		if row.Owner < 0 || row.Degraded {
			t.Errorf("slot %d still unserved after join: %+v", row.Slot, row)
		}
	}
	found := false
	for _, s := range st.Ring.MovedSlots {
		if s == victim.Slot {
			found = true
		}
	}
	if !found {
		t.Errorf("lost slot %d not in the join's moved set %v", victim.Slot, st.Ring.MovedSlots)
	}

	// And the stream still drains to a clean done.
	for _, m := range msgs[2*third:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	alerts := <-got
	if len(alerts) == 0 {
		t.Error("no alerts survived the loss; surviving slots should keep alerting")
	}
	if len(alerts) >= len(ref) {
		t.Errorf("degraded run produced %d alerts, reference has %d; the lost slot's windows should be missing", len(alerts), len(ref))
	}
}

// TestRouterGracefulLeave: a worker announcing "leave" hands its slots to
// the survivors at a quiesced cut — byte-identically.
func TestRouterGracefulLeave(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	cl := startCluster(t, 3, cfg, nil)
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	verBefore := cl.rt.Stats().Ring.Version

	half := len(msgs) / 2
	for _, m := range msgs[:half] {
		ingest.send(m)
	}
	// Administrative leave via the client protocol (the worker-initiated
	// "leave" line exercises the same removeWorker path).
	c := dialRouter(t, cl.rt)
	c.send(server.Msg{Kind: server.KindLeave, Addr: cl.workers[1].Addr().String()})
	if m := c.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("leave: got %+v", m)
	}
	for _, m := range msgs[half:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "graceful-leave")

	st := cl.rt.Stats()
	if st.Ring.Version != verBefore+1 {
		t.Errorf("ring version %d, want %d after leave", st.Ring.Version, verBefore+1)
	}
	if st.Workers[1].Alive {
		t.Error("left worker still marked alive")
	}
	for _, row := range st.Ring.Slots {
		if row.Owner == 1 {
			t.Errorf("slot %d still owned by the departed worker", row.Slot)
		}
		if row.Owner < 0 {
			t.Errorf("slot %d unserved after leave", row.Slot)
		}
	}
	if st.Degraded {
		t.Error("degraded after a graceful leave")
	}
}

// waitStats polls the router's stats until cond holds.
func waitStats(t *testing.T, rt *Router, cond func(Statsz) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cond(rt.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition never held; last: %s", statsDump(rt))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func statsDump(rt *Router) string {
	st := rt.Stats()
	var b strings.Builder
	for _, w := range st.Workers {
		b.WriteString(fmt.Sprintf("worker %d alive=%v serves=%v; ", w.Slot, w.Alive, w.ServesSlots))
	}
	b.WriteString(fmt.Sprintf("degraded=%v", st.Degraded))
	return b.String()
}
