package router

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// TestRouterSlidingQuantileFailover: a sliding quantile — delta partials on
// the workers, the run-merging merge on the router — with replicas 2 keeps
// the single-process alert bytes when a worker is killed mid-stream after a
// cluster checkpoint, for W ∈ {1, 2} surviving workers (W+1 started, one
// killed).
func TestRouterSlidingQuantileFailover(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := server.DefaultQ3Config()
	cfg.SlideMS = 1500 * stream.Millisecond
	ref := offlineLines(t, msgs, uop.BuildQ3(cfg))
	if len(ref) < 50 {
		t.Fatalf("offline reference has %d alerts; test inputs too light", len(ref))
	}
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			cl := startClusterQuery(t, w+1, uop.BuildQ3(cfg), func(c *Config) { c.Replicas = 2 })
			sub := subscribe(t, cl.rt)
			ingest := dialRouter(t, cl.rt)
			third := len(msgs) / 3
			for _, m := range msgs[:third] {
				ingest.send(m)
			}
			ingest.send(server.Msg{Kind: server.KindCkpt})
			if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
				t.Fatalf("ckpt: got %+v", m)
			}
			for _, m := range msgs[third : 2*third] {
				ingest.send(m)
			}
			cl.workers[w].Crash()
			for _, m := range msgs[2*third:] {
				ingest.send(m)
			}
			ingest.send(server.Msg{Kind: server.KindEnd})
			if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
				t.Fatalf("end: got %+v", m)
			}
			diffLines(t, ref, collectAlerts(t, sub), fmt.Sprintf("W=%d", w))
			if st := cl.rt.Stats(); st.Failovers < 1 || st.Degraded {
				t.Errorf("stats: %d failovers, degraded %v; want a clean failover", st.Failovers, st.Degraded)
			}
		})
	}
}
