package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rfid"
	"repro/internal/stream"
	"repro/internal/uop"
)

// testQ1Config is the plan both the daemon and the offline reference use;
// sharded live execution must reproduce the unsharded sync run byte for
// byte.
func testQ1Config(shards int) uop.Q1Config {
	return uop.Q1Config{
		WindowMS:     5 * stream.Second,
		ThresholdLbs: 120,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.5,
		Shards:       shards,
	}
}

// wireTrace runs the RFID T operator on a seeded trace and encodes every
// location tuple as a wire message — the exact stream cmd/rfidtrace -replay
// sends.
func wireTrace(t testing.TB, objects, events int) []Msg {
	t.Helper()
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: objects, Seed: 41, MoveProb: -1})
	trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: events, Seed: 42})
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: 50, UseIndex: true, NegativeEvidence: true, Seed: 43,
	})
	var msgs []Msg
	for _, ev := range trace.Events {
		for _, lt := range tx.Process(ev) {
			msgs = append(msgs, Msg{
				Kind:   KindTuple,
				Source: "locations",
				T:      int64(lt.T),
				Keys:   map[string]int64{"tag": lt.TagID},
				Attrs: map[string]Attr{
					"x":      DistAttr(lt.X),
					"y":      DistAttr(lt.Y),
					"z":      DistAttr(lt.Z),
					"weight": PointAttr(w.Weight(lt.TagID)),
				},
			})
		}
	}
	if len(msgs) == 0 {
		t.Fatal("T operator emitted no location tuples")
	}
	return msgs
}

// offlineAlertLines runs the wire tuples through an unsharded synchronous
// plan — Push then Close — and returns the encoded alert lines: the
// reference a live replay must match byte for byte.
func offlineAlertLines(t testing.TB, msgs []Msg, cfg uop.Q1Config) []string {
	t.Helper()
	cfg.Shards = 0
	c := uop.BuildQ1(cfg).Compile()
	var lines []string
	collect := func(ts []*stream.Tuple) {
		for _, tp := range ts {
			m, err := AlertMsg(tp)
			if err != nil {
				t.Fatalf("encode alert: %v", err)
			}
			line, err := EncodeLine(m)
			if err != nil {
				t.Fatalf("encode line: %v", err)
			}
			lines = append(lines, string(line))
		}
	}
	for _, m := range msgs {
		u, err := ParseTuple(m)
		if err != nil {
			t.Fatalf("parse wire tuple: %v", err)
		}
		c.Push("locations", u)
		collect(c.Results())
	}
	collect(c.Close())
	return lines
}

// testClient is a line-oriented protocol client.
type testClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialServer(t *testing.T, s *Server) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{t: t, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

func (c *testClient) send(m Msg) {
	c.t.Helper()
	line, err := EncodeLine(m)
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

func (c *testClient) sendRaw(line string) {
	c.t.Helper()
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		c.t.Fatalf("send raw: %v", err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

// recv reads one message within the deadline.
func (c *testClient) recv(within time.Duration) Msg {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(within))
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	var m Msg
	if err := json.Unmarshal(line, &m); err != nil {
		c.t.Fatalf("recv: bad line %q: %v", line, err)
	}
	return m
}

// recvLine reads one raw line within the deadline.
func (c *testClient) recvLine(within time.Duration) string {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(within))
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("recv line: %v", err)
	}
	return line
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerReplayByteIdentical is the acceptance test: replaying a seeded
// wire trace through the daemon's sharded live plan yields exactly the
// bytes of the offline unsharded synchronous run — transport batching,
// sharding, and continuous execution add nothing and lose nothing.
func TestServerReplayByteIdentical(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	ref := offlineAlertLines(t, msgs, testQ1Config(0))
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}

	s := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	sub := dialServer(t, s)
	sub.send(Msg{Kind: KindSub})
	if m := sub.recv(5 * time.Second); m.Kind != KindOK {
		t.Fatalf("subscribe: got %+v", m)
	}
	ingest := dialServer(t, s)
	for _, m := range msgs {
		ingest.send(m)
	}
	ingest.send(Msg{Kind: KindEnd})
	if m := ingest.recv(30 * time.Second); m.Kind != KindOK {
		t.Fatalf("end: got %+v", m)
	}

	var got []string
	for {
		line := sub.recvLine(30 * time.Second)
		var m Msg
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad alert line %q: %v", line, err)
		}
		if m.Kind == KindDone {
			if m.AlertCount() != uint64(len(got)) {
				t.Fatalf("done reports %d alerts, subscriber saw %d", m.AlertCount(), len(got))
			}
			break
		}
		got = append(got, line)
	}
	if strings.Join(got, "") != strings.Join(ref, "") {
		t.Fatalf("live alerts diverge from offline reference:\nref (%d):\n%s\ngot (%d):\n%s",
			len(ref), strings.Join(ref, ""), len(got), strings.Join(got, ""))
	}
}

// locMsgAt builds a handcrafted location wire tuple.
func locMsgAt(tms int64, tag int64, x, y, weight float64) Msg {
	return Msg{
		Kind: KindTuple, Source: "locations", T: tms,
		Keys: map[string]int64{"tag": tag},
		Attrs: map[string]Attr{
			"x": {Mean: x, Std: 1}, "y": {Mean: y, Std: 1},
			"z": PointAttr(2), "weight": PointAttr(weight),
		},
	}
}

// TestServerAlertWithoutEnd is the wire-level latency regression test of
// the acceptance criterion: a sparse live stream — far below the 64-tuple
// watermark cadence and the 32-tuple transport batches — must deliver its
// alert to a subscriber while the stream stays open: no "end", no Close, no
// flush of any kind.
func TestServerAlertWithoutEnd(t *testing.T) {
	s := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	sub := dialServer(t, s)
	sub.send(Msg{Kind: KindSub})
	if m := sub.recv(5 * time.Second); m.Kind != KindOK {
		t.Fatalf("subscribe: got %+v", m)
	}
	ingest := dialServer(t, s)
	// Three heavy tuples in window [0, 5000), then a single tuple past the
	// boundary to close it. Four tuples total: every transport batch stays
	// partial, every watermark cadence stays unmet.
	for i := int64(0); i < 3; i++ {
		ingest.send(locMsgAt(i*100, i+1, 5, 5, 200))
	}
	start := time.Now()
	ingest.send(locMsgAt(6000, 99, 5, 5, 200))

	m := sub.recv(5 * time.Second) // recv enforces the latency bound
	if m.Kind != KindAlert {
		t.Fatalf("expected an alert, got %+v", m)
	}
	if m.T != 5000 {
		t.Errorf("alert window end %d, want 5000", m.T)
	}
	if m.P == nil || *m.P < 0.5 {
		t.Errorf("alert probability %v, want >= 0.5", m.P)
	}
	t.Logf("end-to-end alert latency (boundary tuple write → subscriber read): %v", time.Since(start))
}

// TestServerMalformedLines: every bad line is a per-connection error reply
// — the connection, the engine, and other clients keep working, and a
// subsequent valid stream still produces its alert.
func TestServerMalformedLines(t *testing.T) {
	s := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	c := dialServer(t, s)
	bad := []string{
		`this is not json`,
		`{"kind":"tuple","t_ms":100}`, // no attrs
		`{"kind":"tuple","t_ms":100,"attrs":{"x":[1,-2],"weight":140}}`,            // negative std
		`{"kind":"tuple","t_ms":100,"attrs":{"x":{"not":"an attr"},"weight":140}}`, // wrong attr shape
		`{"kind":"tuple","t_ms":-5,"attrs":{"x":1,"weight":140}}`,                  // negative time
		`{"kind":"tuple","t_ms":100,"keys":{"tag":null},"attrs":{"x":1}}`,          // null key
		`{"kind":"tuple","t_ms":null,"attrs":{"x":1,"weight":140}}`,                // null time
		`{"kind":"tuple","source":"nonexistent","t_ms":100,"attrs":{"x":1}}`,       // unknown source
		`{"kind":"frobnicate"}`, // unknown kind
	}
	for _, line := range bad {
		c.sendRaw(line)
		if m := c.recv(5 * time.Second); m.Kind != KindErr || m.Error == "" {
			t.Fatalf("line %q: expected err reply, got %+v", line, m)
		}
	}
	if got := s.Stats().IngestErrors; got != uint64(len(bad)) {
		t.Errorf("ingest_errors = %d, want %d", got, len(bad))
	}

	// The same connection still ingests; the engine still alerts.
	sub := dialServer(t, s)
	sub.send(Msg{Kind: KindSub})
	if m := sub.recv(5 * time.Second); m.Kind != KindOK {
		t.Fatalf("subscribe: got %+v", m)
	}
	for i := int64(0); i < 3; i++ {
		c.send(locMsgAt(i*100, i+1, 5, 5, 200))
	}
	c.send(locMsgAt(6000, 99, 5, 5, 200))
	if m := sub.recv(5 * time.Second); m.Kind != KindAlert {
		t.Fatalf("after malformed lines, expected an alert, got %+v", m)
	}
}

// TestServerStatsz: the HTTP endpoint reports engine boxes, queue state,
// and counters consistent with the traffic served.
func TestServerStatsz(t *testing.T) {
	s := newTestServer(t, Config{
		HTTPAddr:   "127.0.0.1:0",
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	c := dialServer(t, s)
	for i := int64(0); i < 5; i++ {
		c.send(locMsgAt(i*100, i+1, 5, 5, 100))
	}
	// Wait until the engine has drained the queue into the plan.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Ingested < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/statsz", s.HTTPAddr()))
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
	if len(st.Boxes) == 0 {
		t.Error("statsz reports no boxes")
	}
	var sourceIn uint64
	for _, b := range st.Boxes {
		if strings.HasPrefix(b.Name, "⇉") {
			sourceIn += b.In
		}
	}
	if sourceIn == 0 {
		t.Errorf("statsz partition boxes saw no traffic: %+v", st.Boxes)
	}
	if st.Queue.Capacity == 0 {
		t.Error("statsz queue capacity is 0")
	}
	if st.TuplesPerS <= 0 {
		t.Error("statsz tuples_per_s is 0")
	}
}

// TestServerGracefulShutdownDrains: Close while a window is open must
// flush it — the final alerts and the done line reach subscribers before
// their connections close.
func TestServerGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	sub := dialServer(t, s)
	sub.send(Msg{Kind: KindSub})
	if m := sub.recv(5 * time.Second); m.Kind != KindOK {
		t.Fatalf("subscribe: got %+v", m)
	}
	ingest := dialServer(t, s)
	for i := int64(0); i < 3; i++ {
		ingest.send(locMsgAt(i*100, i+1, 5, 5, 200))
	}
	// Wait for ingestion, then shut down with the window still open.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Ingested < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	go s.Close()

	var sawAlert, sawDone bool
	for !sawDone {
		m := sub.recv(10 * time.Second)
		switch m.Kind {
		case KindAlert:
			sawAlert = true
		case KindDone:
			sawDone = true
		}
	}
	if !sawAlert {
		t.Error("graceful shutdown did not flush the open window's alert")
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue(4, DropOldest)
	ctx := context.Background()
	mk := func(i int) stream.SourceTuple {
		return stream.SourceTuple{T: stream.NewTuple(stream.NewSchema("v"), stream.Time(i), int64(i))}
	}
	for i := 0; i < 10; i++ {
		if err := q.Put(ctx, mk(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	st := q.Stats()
	if st.Accepted != 10 || st.Dropped != 6 || st.Depth != 4 {
		t.Fatalf("stats %+v, want accepted 10, dropped 6, depth 4", st)
	}
	q.Close()
	var vals []int64
	for tp := range q.Tuples() {
		vals = append(vals, tp.T.Fields[0].(int64))
	}
	if len(vals) != 4 || vals[0] != 6 || vals[3] != 9 {
		t.Fatalf("drained %v, want the newest four [6 7 8 9]", vals)
	}
	if err := q.Put(ctx, mk(99)); err != ErrQueueClosed {
		t.Fatalf("Put after Close: %v, want ErrQueueClosed", err)
	}
}

func TestQueueBlockBackpressure(t *testing.T) {
	q := NewQueue(2, Block)
	mk := func(i int) stream.SourceTuple {
		return stream.SourceTuple{T: stream.NewTuple(stream.NewSchema("v"), stream.Time(i), int64(i))}
	}
	ctx := context.Background()
	if err := q.Put(ctx, mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Put(ctx, mk(1)); err != nil {
		t.Fatal(err)
	}
	// Full queue: Put must block until cancelled — nothing is dropped.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := q.Put(short, mk(2)); err != context.DeadlineExceeded {
		t.Fatalf("Put on full queue: %v, want DeadlineExceeded", err)
	}
	if st := q.Stats(); st.Dropped != 0 || st.Accepted != 2 {
		t.Fatalf("stats %+v: block policy must not drop", st)
	}
	// A blocked Put must settle before Close closes the channel.
	done := make(chan error, 1)
	go func() { done <- q.Put(ctx, mk(3)) }()
	time.Sleep(20 * time.Millisecond)
	<-q.Tuples() // make room: the blocked Put completes
	if err := <-done; err != nil {
		t.Fatalf("unblocked Put: %v", err)
	}
	q.Close()
	n := 0
	for range q.Tuples() {
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d tuples after close, want 2", n)
	}
}

// TestAttrUnmarshalStrict pins the wire boundary's array arity check: Go's
// lenient array decoding must not turn a malformed attr into a silent
// certain zero.
func TestAttrUnmarshalStrict(t *testing.T) {
	var a Attr
	for _, bad := range []string{`[]`, `[1]`, `[1,2,3]`, `"five"`, `{"mean":1}`} {
		if err := json.Unmarshal([]byte(bad), &a); err == nil {
			t.Errorf("attr %s decoded without error (as %+v)", bad, a)
		}
	}
	if err := json.Unmarshal([]byte(`7.5`), &a); err != nil || a != (Attr{Mean: 7.5}) {
		t.Errorf("number attr: %+v, %v", a, err)
	}
	if err := json.Unmarshal([]byte(`[3,0.5]`), &a); err != nil || a != (Attr{Mean: 3, Std: 0.5}) {
		t.Errorf("pair attr: %+v, %v", a, err)
	}
}
