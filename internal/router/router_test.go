package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rfid"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// The tests in this file pin the cluster over real sockets: N worker
// processes (in-process server.Server instances on loopback TCP) behind a
// router must reproduce the single-process alert stream byte for byte, for
// worker counts {1, 2, 4}, tumbling and sliding windows, and stragglers —
// and keep that guarantee when a worker is killed mid-stream with
// replication on.

// clusterQ1Cfg mirrors the in-process cluster tests' plan parameters.
func clusterQ1Cfg() uop.Q1Config {
	return uop.Q1Config{
		WindowMS:     5 * stream.Second,
		ThresholdLbs: 120,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.3,
	}
}

// wireTrace runs the RFID T operator on a seeded trace and encodes every
// location tuple as a wire message — the exact stream cmd/rfidtrace -replay
// sends a router or a single-process daemon.
func wireTrace(t testing.TB, objects, events int) []server.Msg {
	t.Helper()
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: objects, Seed: 41, MoveProb: -1})
	trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: events, Seed: 42})
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: 50, UseIndex: true, NegativeEvidence: true, Seed: 43,
	})
	var msgs []server.Msg
	for _, ev := range trace.Events {
		for _, lt := range tx.Process(ev) {
			msgs = append(msgs, server.Msg{
				Kind:   server.KindTuple,
				Source: "locations",
				T:      int64(lt.T),
				Keys:   map[string]int64{"tag": lt.TagID},
				Attrs: map[string]server.Attr{
					"x":      server.DistAttr(lt.X),
					"y":      server.DistAttr(lt.Y),
					"z":      server.DistAttr(lt.Z),
					"weight": server.PointAttr(w.Weight(lt.TagID)),
				},
			})
		}
	}
	if len(msgs) == 0 {
		t.Fatal("T operator emitted no location tuples")
	}
	return msgs
}

// offlineAlertLines is the byte-identity reference: the same wire tuples
// through an unsharded synchronous plan — Push then Close — encoded exactly
// as the router encodes subscriber alerts.
func offlineAlertLines(t testing.TB, msgs []server.Msg, cfg uop.Q1Config) []string {
	t.Helper()
	cfg.Shards = 0
	return offlineLines(t, msgs, uop.BuildQ1(cfg))
}

// offlineLines is offlineAlertLines for any single-source query.
func offlineLines(t testing.TB, msgs []server.Msg, q *uop.Query) []string {
	t.Helper()
	c := q.Compile()
	var lines []string
	collect := func(ts []*stream.Tuple) {
		for _, tp := range ts {
			m, err := server.AlertMsg(tp)
			if err != nil {
				t.Fatalf("encode alert: %v", err)
			}
			line, err := server.EncodeLine(m)
			if err != nil {
				t.Fatalf("encode line: %v", err)
			}
			lines = append(lines, string(line))
		}
	}
	for _, m := range msgs {
		u, err := server.ParseTuple(m)
		if err != nil {
			t.Fatalf("parse wire tuple: %v", err)
		}
		c.Push("locations", u)
		collect(c.Results())
	}
	collect(c.Close())
	return lines
}

// cluster is N worker servers plus the router fronting them.
type cluster struct {
	workers []*server.Server
	rt      *Router
}

func startCluster(t *testing.T, n int, qcfg uop.Q1Config, mut func(*Config)) *cluster {
	t.Helper()
	return startClusterQuery(t, n, uop.BuildQ1(qcfg), mut)
}

// startClusterQuery is startCluster for any clusterable query.
func startClusterQuery(t *testing.T, n int, q *uop.Query, mut func(*Config)) *cluster {
	t.Helper()
	plan, err := q.Cluster()
	if err != nil {
		t.Fatalf("Cluster(): %v", err)
	}
	cl := &cluster{}
	var addrs []string
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{
			Addr:       "127.0.0.1:0",
			NewPlan:    plan.CompileWorker,
			FlushEvery: 10 * time.Millisecond,
			Cluster:    true,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(func() { s.Close() })
		cl.workers = append(cl.workers, s)
		addrs = append(addrs, s.Addr().String())
	}
	cfg := Config{Addr: "127.0.0.1:0", Workers: addrs, Plan: plan}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	cl.rt = rt
	return cl
}

// testClient is a line-oriented protocol client on the router's port.
type testClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialRouter(t *testing.T, rt *Router) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", rt.Addr().String())
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{t: t, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

func (c *testClient) send(m server.Msg) {
	c.t.Helper()
	line, err := server.EncodeLine(m)
	if err != nil {
		c.t.Fatalf("encode: %v", err)
	}
	if _, err := c.w.Write(line); err != nil {
		c.t.Fatalf("send: %v", err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

func (c *testClient) recv(within time.Duration) server.Msg {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(within))
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	var m server.Msg
	if err := json.Unmarshal(line, &m); err != nil {
		c.t.Fatalf("recv: bad line %q: %v", line, err)
	}
	return m
}

func (c *testClient) recvLine(within time.Duration) string {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(within))
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("recv line: %v", err)
	}
	return line
}

func subscribe(t *testing.T, rt *Router) *testClient {
	t.Helper()
	sub := dialRouter(t, rt)
	sub.send(server.Msg{Kind: server.KindSub})
	if m := sub.recv(5 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("subscribe: got %+v", m)
	}
	return sub
}

// collectAlerts reads the subscriber stream to "done" and returns the raw
// alert lines.
func collectAlerts(t *testing.T, sub *testClient) []string {
	t.Helper()
	var got []string
	for {
		line := sub.recvLine(60 * time.Second)
		var m server.Msg
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad subscriber line %q: %v", line, err)
		}
		switch m.Kind {
		case server.KindDone:
			if m.AlertCount() != uint64(len(got)) {
				t.Fatalf("done reports %d alerts, subscriber saw %d", m.AlertCount(), len(got))
			}
			return got
		case server.KindAlert:
			got = append(got, line)
		default:
			t.Fatalf("unexpected subscriber line %q", line)
		}
	}
}

func diffLines(t *testing.T, ref, got []string, label string) {
	t.Helper()
	if strings.Join(got, "") != strings.Join(ref, "") {
		t.Errorf("%s: alerts diverge from offline reference:\nref (%d):\n%s\ngot (%d):\n%s",
			label, len(ref), strings.Join(ref, ""), len(got), strings.Join(got, ""))
	}
}

// linkFrames reports the bwire frames each worker received on its router
// link (the connection that negotiated bin), one entry per worker.
func linkFrames(cl *cluster) []uint64 {
	frames := make([]uint64, len(cl.workers))
	for i, w := range cl.workers {
		for _, c := range w.Stats().Conns {
			if c.Proto == "bin" {
				frames[i] += c.FramesIn
			}
		}
	}
	return frames
}

// TestRouterReplayByteIdentical is the cluster acceptance test: a seeded
// wire trace replayed through router + N workers over TCP yields exactly
// the bytes of the offline unsharded synchronous run — for N ∈ {1, 2, 4},
// tumbling and sliding windows, and straggler-displaced timestamps. The
// JSON client's tuples reach every worker as bwire frames.
func TestRouterReplayByteIdentical(t *testing.T) {
	base := wireTrace(t, 40, 300)
	cases := []struct {
		name     string
		mut      func(*uop.Q1Config)
		straggle bool
	}{
		{"tumbling", nil, false},
		{"sliding", func(c *uop.Q1Config) { c.SlideMS = 1500 * stream.Millisecond }, false},
		{"straggler", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msgs := append([]server.Msg(nil), base...)
			if tc.straggle {
				for i := 7; i < len(msgs); i += 11 {
					if msgs[i].T -= 6000; msgs[i].T < 0 {
						msgs[i].T = 0
					}
				}
			}
			cfg := clusterQ1Cfg()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			ref := offlineAlertLines(t, msgs, cfg)
			if len(ref) == 0 {
				t.Fatal("offline reference produced no alerts; test inputs too light")
			}
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					cl := startCluster(t, workers, cfg, nil)
					sub := subscribe(t, cl.rt)
					ingest := dialRouter(t, cl.rt)
					for _, m := range msgs {
						ingest.send(m)
					}
					ingest.send(server.Msg{Kind: server.KindEnd})
					if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
						t.Fatalf("end: got %+v", m)
					}
					diffLines(t, ref, collectAlerts(t, sub), fmt.Sprintf("workers=%d", workers))
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

// TestRouterSecondStream: the router serves epochs back to back — a second
// replay on the same cluster reproduces the reference again.
func TestRouterSecondStream(t *testing.T) {
	msgs := wireTrace(t, 30, 200)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	cl := startCluster(t, 2, cfg, nil)
	for round := 0; round < 2; round++ {
		sub := subscribe(t, cl.rt)
		ingest := dialRouter(t, cl.rt)
		for _, m := range msgs {
			ingest.send(m)
		}
		ingest.send(server.Msg{Kind: server.KindEnd})
		if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
			t.Fatalf("round %d end: got %+v", round, m)
		}
		diffLines(t, ref, collectAlerts(t, sub), fmt.Sprintf("round %d", round))
	}
}

// TestRouterFailoverKillWorker is the replication acceptance test: with
// -replicas 2, SIGKILL-ing a worker mid-stream (after a cluster checkpoint
// bounded its replay tail) must not lose or duplicate a single alert — the
// router promotes the slot's ring successor from checkpoint + tail and the
// drained stream still matches the offline reference byte for byte.
func TestRouterFailoverKillWorker(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}
	cl := startCluster(t, 3, cfg, func(c *Config) { c.Replicas = 2 })
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)

	third := len(msgs) / 3
	for _, m := range msgs[:third] {
		ingest.send(m)
	}
	// A cluster checkpoint: snapshots land on each slot's replica, tails
	// trim — the failover below restores checkpoint + suffix, not the whole
	// epoch.
	ingest.send(server.Msg{Kind: server.KindCkpt})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("ckpt: got %+v", m)
	}
	for _, m := range msgs[third : 2*third] {
		ingest.send(m)
	}
	// Kill a worker abruptly — no final checkpoint, no goodbye.
	cl.workers[1].Crash()
	for _, m := range msgs[2*third:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "failover")

	st := cl.rt.Stats()
	if st.Failovers < 1 {
		t.Errorf("stats report %d failovers, want >= 1", st.Failovers)
	}
	if st.Checkpoints < 1 {
		t.Errorf("stats report %d checkpoints, want >= 1", st.Checkpoints)
	}
	if st.Degraded {
		t.Error("stats report degraded: the killed slot had a live replica")
	}
}

// TestRouterFailoverWithoutCheckpoint: replication alone (no checkpoint
// ever taken) also recovers — the whole tail replays from epoch start.
func TestRouterFailoverWithoutCheckpoint(t *testing.T) {
	msgs := wireTrace(t, 30, 200)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	cl := startCluster(t, 3, cfg, func(c *Config) { c.Replicas = 2 })
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	half := len(msgs) / 2
	for _, m := range msgs[:half] {
		ingest.send(m)
	}
	cl.workers[0].Crash()
	for _, m := range msgs[half:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "failover-nockpt")
	if got := cl.rt.Stats().Failovers; got < 1 {
		t.Errorf("stats report %d failovers, want >= 1", got)
	}
}

// TestRouterPingAndStatsz: the ping/pong health check round-trips the ring
// version on both the client and the worker protocol, and /statsz reports
// ring membership and per-worker last-seen liveness.
func TestRouterPingAndStatsz(t *testing.T) {
	cfg := clusterQ1Cfg()
	cl := startCluster(t, 2, cfg, func(c *Config) {
		c.HTTPAddr = "127.0.0.1:0"
		c.PingEvery = 20 * time.Millisecond
		c.Replicas = 2
	})

	// Client-side ping: pong carries the ring membership version.
	c := dialRouter(t, cl.rt)
	c.send(server.Msg{Kind: server.KindPing})
	pong := c.recv(5 * time.Second)
	if pong.Kind != server.KindPong {
		t.Fatalf("ping: got %+v", pong)
	}
	wantV := cl.rt.Stats().Ring.Version
	if pong.Version != wantV {
		t.Errorf("pong version %d, want ring version %d", pong.Version, wantV)
	}

	// Worker-side ping: the ping loop refreshes last-seen and the echoed
	// ring version on every link.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := cl.rt.Stats()
		fresh := 0
		for _, w := range st.Workers {
			if w.Alive && w.LastSeenMS >= 0 && w.Version == wantV {
				fresh++
			}
		}
		if fresh == len(st.Workers) && len(st.Workers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never reported fresh pongs: %+v", st.Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A few tuples, then the HTTP snapshot.
	for i, m := range wireTrace(t, 5, 20) {
		if i >= 5 {
			break
		}
		c.send(m)
	}
	deadline = time.Now().Add(5 * time.Second)
	for cl.rt.Stats().Ingested < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/statsz", cl.rt.HTTPAddr()))
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	defer resp.Body.Close()
	var st Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if st.Ingested != 5 {
		t.Errorf("statsz ingested = %d, want 5", st.Ingested)
	}
	if st.Replicas != 2 {
		t.Errorf("statsz replicas = %d, want 2", st.Replicas)
	}
	if len(st.Ring.Members) != 2 || st.Ring.Vnodes <= 0 {
		t.Errorf("statsz ring = %+v, want 2 members and positive vnodes", st.Ring)
	}
	var share float64
	for _, m := range st.Ring.Members {
		share += m.Share
	}
	if share < 0.99 || share > 1.01 {
		t.Errorf("ring member shares sum to %v, want ~1", share)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("statsz reports %d workers, want 2", len(st.Workers))
	}
	for _, w := range st.Workers {
		if !w.Alive || w.LastSeenMS < 0 {
			t.Errorf("worker %d: alive=%v last_seen_ms=%d, want alive with last-seen", w.Slot, w.Alive, w.LastSeenMS)
		}
		if len(w.ServesSlots) == 0 {
			t.Errorf("worker %d serves no slots", w.Slot)
		}
	}
}

// TestRouterRejectsBadConfig pins the constructor's validation.
func TestRouterRejectsBadConfig(t *testing.T) {
	plan, err := uop.BuildQ1(clusterQ1Cfg()).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Addr: "127.0.0.1:0", Workers: []string{"127.0.0.1:1"}},                                   // no plan
		{Addr: "127.0.0.1:0", Plan: plan},                                                         // no workers
		{Plan: plan, Workers: []string{"127.0.0.1:1"}},                                            // no addr
		{Addr: "127.0.0.1:0", Plan: plan, Workers: []string{"127.0.0.1:1"}, Weights: []int{1, 2}}, // weight arity
		{Addr: "127.0.0.1:0", Plan: plan, Workers: []string{"127.0.0.1:1"}, Proto: "json"},        // links are bin only
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted; want error", i)
		}
	}
}

// TestRouterProtoOnlyBin: Config.Proto accepts only "" and "bin", and
// either way the worker link speaks bwire from the handshake on.
func TestRouterProtoOnlyBin(t *testing.T) {
	for _, proto := range []string{"", "bin"} {
		t.Run(fmt.Sprintf("proto=%q", proto), func(t *testing.T) {
			cl := startCluster(t, 1, clusterQ1Cfg(), func(c *Config) { c.Proto = proto })
			if n := linkFrames(cl)[0]; n < 1 {
				t.Errorf("worker received %d bwire frames after the handshake, want the hello", n)
			}
		})
	}
}
