package router

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// Every router↔worker link carries schema-interned tuple frames, binary
// close punctuations, and binary part blobs, so every cluster test in this
// package runs on them. Clients are free to pick their own protocol per
// connection: the JSON client is the default elsewhere, the binary client
// is exercised here.

// sendFrames writes raw binary frame bytes to the router, interleaving
// with the client's JSON lines.
func (c *testClient) sendFrames(raw []byte) {
	c.t.Helper()
	if _, err := c.w.Write(raw); err != nil {
		c.t.Fatalf("send frames: %v", err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

// encodeBinary batches msgs into the binary ingest stream a -proto bin
// replay client sends.
func encodeBinary(t testing.TB, msgs []server.Msg) []byte {
	t.Helper()
	bb := server.NewBwBatcher()
	for _, m := range msgs {
		if err := bb.Add(m); err != nil {
			t.Fatalf("batch tuple: %v", err)
		}
	}
	return bb.Take()
}

// TestRouterBinaryLinksByteIdentical: naming the link encoding explicitly
// (Config.Proto = "bin", what streamd -proto bin sets) leaves the cluster
// acceptance criterion unchanged — tumbling and sliding windows, multiple
// worker counts, same offline reference, bwire frames on every link.
func TestRouterBinaryLinksByteIdentical(t *testing.T) {
	base := wireTrace(t, 40, 300)
	cases := []struct {
		name    string
		mut     func(*uop.Q1Config)
		workers []int
	}{
		{"tumbling", nil, []int{1, 2, 4}},
		{"sliding", func(c *uop.Q1Config) { c.SlideMS = 1500 * stream.Millisecond }, []int{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := clusterQ1Cfg()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			ref := offlineAlertLines(t, base, cfg)
			if len(ref) == 0 {
				t.Fatal("offline reference produced no alerts")
			}
			for _, workers := range tc.workers {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					cl := startCluster(t, workers, cfg, func(c *Config) { c.Proto = "bin" })
					sub := subscribe(t, cl.rt)
					ingest := dialRouter(t, cl.rt)
					for _, m := range base {
						ingest.send(m)
					}
					ingest.send(server.Msg{Kind: server.KindEnd})
					if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
						t.Fatalf("end: got %+v", m)
					}
					diffLines(t, ref, collectAlerts(t, sub), fmt.Sprintf("bin workers=%d", workers))
					for i, n := range linkFrames(cl) {
						if n <= 1 {
							t.Errorf("worker %d received %d bwire frames, want the hello plus data frames", i, n)
						}
					}
				})
			}
		})
	}
}

// TestRouterBinaryClientIngest: a client sending binary tuple frames to
// the router (which decodes them into the same routing path JSON lines
// take) reproduces the reference, and /statsz labels the client
// connection's negotiated protocol.
func TestRouterBinaryClientIngest(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}
	cl := startCluster(t, 2, cfg, nil)
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	ingest.sendFrames(server.EncodeBwHello())
	ingest.sendFrames(encodeBinary(t, msgs))
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "binary client")

	var protos []string
	for _, c := range cl.rt.Stats().Conns {
		protos = append(protos, c.Proto)
	}
	seenBin := false
	for _, p := range protos {
		if p == "bin" {
			seenBin = true
		}
	}
	if !seenBin {
		t.Errorf("statsz conns %v: no connection negotiated bin", protos)
	}
}

// TestRouterFailoverKillWorkerBinary: the replication acceptance test with
// binary end to end — the client ingests bwire frames and Config.Proto
// names bin. Checkpoint, SIGKILL a worker mid-stream, and the promoted
// replica's tail replay (binary tail records, binary close punctuations)
// still reproduces the reference byte for byte.
func TestRouterFailoverKillWorkerBinary(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}
	cl := startCluster(t, 3, cfg, func(c *Config) {
		c.Replicas = 2
		c.Proto = "bin"
	})
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	ingest.sendFrames(server.EncodeBwHello())
	// One batcher for the connection: schema ids it interned in an earlier
	// chunk stay defined for the later ones.
	bb := server.NewBwBatcher()
	sendChunk := func(chunk []server.Msg) {
		for _, m := range chunk {
			if err := bb.Add(m); err != nil {
				t.Fatalf("batch tuple: %v", err)
			}
		}
		ingest.sendFrames(bb.Take())
	}

	third := len(msgs) / 3
	sendChunk(msgs[:third])
	ingest.send(server.Msg{Kind: server.KindCkpt})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("ckpt: got %+v", m)
	}
	sendChunk(msgs[third : 2*third])
	cl.workers[1].Crash()
	sendChunk(msgs[2*third:])
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "bin failover")

	st := cl.rt.Stats()
	if st.Failovers < 1 {
		t.Errorf("stats report %d failovers, want >= 1", st.Failovers)
	}
	if st.Degraded {
		t.Error("stats report degraded: the killed slot had a live replica")
	}
}
