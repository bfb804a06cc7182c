package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// The tests in this file pin the frame-at-a-time data plane: client frames
// routed as frames, per-slot link batches flushed ahead of every close, and
// a failover that must not wedge behind a full link queue.

// bigFrames encodes msgs as a binary client stream of TUPLES frames of
// per tuples each (schema frames interleaved as shapes appear), and reports
// how many frames hold tuples from more than one window of length win.
func bigFrames(t *testing.T, msgs []server.Msg, per int, win stream.Time) (raw []byte, straddling int) {
	t.Helper()
	enc := server.NewBwEncoder()
	sent := map[*server.BwSchema]bool{}
	for off := 0; off < len(msgs); {
		var bts []server.BwTuple
		var sc *server.BwSchema
		for ; off < len(msgs) && len(bts) < per; off++ {
			var bt server.BwTuple
			if err := enc.Positional(&msgs[off], &bt); err != nil {
				t.Fatalf("msg %d: %v", off, err)
			}
			if sc != nil && bt.Schema != sc {
				break
			}
			sc = bt.Schema
			bts = append(bts, bt)
		}
		if !sent[sc] {
			raw = append(raw, sc.Frame()...)
			sent[sc] = true
		}
		raw = append(raw, server.EncodeTuplesFrame(sc, bts)...)
		first, last := stream.Time(bts[0].T)/win, stream.Time(bts[len(bts)-1].T)/win
		if first != last {
			straddling++
		}
	}
	return raw, straddling
}

// TestRouterBinaryFrameStraddlesWindows: binary client frames that span
// window boundaries — so the partition clock closes windows in the middle
// of a routing hold — reach two slots with replication on and still give
// the offline bytes. Every open batch must ship before the close does.
func TestRouterBinaryFrameStraddlesWindows(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}
	raw, straddling := bigFrames(t, msgs, 97, cfg.WindowMS)
	if straddling < 3 {
		t.Fatalf("only %d frames straddle a window boundary; test inputs too light", straddling)
	}
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cl := startCluster(t, workers, cfg, func(c *Config) { c.Replicas = 2 })
			sub := subscribe(t, cl.rt)
			ingest := dialRouter(t, cl.rt)
			ingest.sendFrames(raw)
			ingest.send(server.Msg{Kind: server.KindEnd})
			if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
				t.Fatalf("end: got %+v", m)
			}
			diffLines(t, ref, collectAlerts(t, sub), fmt.Sprintf("straddling frames, workers=%d", workers))
			var replicated uint64
			for _, l := range cl.rt.Stats().Workers {
				replicated += l.Replicated
			}
			if replicated != uint64(len(msgs)) {
				t.Errorf("replicated %d tuples, want every one of %d", replicated, len(msgs))
			}
		})
	}
}

// TestRouterFailoverFullLinkQueue: a worker killed while its link queue is
// full must not wedge the router. Routing holds routeMu while it blocks in
// the dead link's Put; the failover entered from that link's reader and
// sender closes the queue before it waits for routeMu, so the Put fails
// fast and the frame is redirected to the promoted replica.
func TestRouterFailoverFullLinkQueue(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := server.DefaultQ3Config()
	cfg.SlideMS = 1500 * stream.Millisecond
	ref := offlineLines(t, msgs, uop.BuildQ3(cfg))
	cl := startClusterQuery(t, 3, uop.BuildQ3(cfg), func(c *Config) {
		c.Replicas = 2
		c.SendBuffer = 16
	})
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
	cl.workers[2].Crash()
	for _, m := range msgs[2*third:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(20 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "full link queue")
	if st := cl.rt.Stats(); st.Failovers < 1 || st.Degraded {
		t.Errorf("stats: %d failovers, degraded %v; want a clean failover", st.Failovers, st.Degraded)
	}
}

// sinkWorker is a stand-in worker that acks the link handshake and then
// reads and discards everything, allocating nothing in steady state — so
// an allocation count taken around the router measures the router alone.
func sinkWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				wr := server.NewWireReader(c, 1<<26)
				ok := mustLine(server.Msg{Kind: server.KindOK})
				for {
					line, _, err := wr.Next()
					if err != nil {
						return
					}
					if len(line) == 0 {
						continue
					}
					var m server.Msg
					if json.Unmarshal(line, &m) == nil && (m.Kind == server.KindJoin || m.Kind == server.KindSub) {
						c.Write(ok)
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouteFrameAllocs pins the router's per-tuple allocation cost: routing
// one 32-tuple client frame over two slots with replication on — decode,
// validation, ring lookup, the partition box, and the owner and replica
// batches — stays within 2 allocations per tuple.
func TestRouteFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	plan, err := uop.BuildQ1(clusterQ1Cfg()).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Addr:     "127.0.0.1:0",
		Workers:  []string{sinkWorker(t), sinkWorker(t)},
		Replicas: 2,
		Plan:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })

	// One window's worth of tuples, so repeated runs trigger no closes.
	var msgs []server.Msg
	for _, m := range wireTrace(t, 40, 300) {
		if m.T < int64(clusterQ1Cfg().WindowMS) {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) < server.BwBatch {
		t.Fatalf("first window holds %d tuples, want at least %d", len(msgs), server.BwBatch)
	}
	raw := encodeBinary(t, msgs[:server.BwBatch])
	wr := server.NewWireReader(bytes.NewReader(raw), 0)
	ic := newIngestConn()
	var tuples []byte
	for {
		_, fr, err := wr.Next()
		if err != nil {
			break
		}
		if fr.Kind == server.BwTuples {
			tuples = append([]byte(nil), fr.Payload...)
			continue
		}
		if _, err := rt.handleClientFrame(fr, ic); err != nil {
			t.Fatal(err)
		}
	}
	frame := server.BwFrame{Kind: server.BwTuples, Payload: tuples}
	route := func() {
		if n, err := rt.handleClientFrame(frame, ic); err != nil || n != server.BwBatch {
			t.Fatalf("routed %d tuples: %v", n, err)
		}
	}
	route() // warm the decoder scratch, the schema cache and the batch buffers
	perTuple := testing.AllocsPerRun(200, route) / server.BwBatch
	t.Logf("%.3f allocs per routed tuple", perTuple)
	if perTuple > 2 {
		t.Errorf("routing a %d-tuple frame costs %.3f allocs per tuple, want <= 2", server.BwBatch, perTuple)
	}
}
