package router

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// The client-protocol conformance test: one script runs against a
// single-process streamd and against a router over one worker. Both
// daemons must give the same reply kinds to every step, and the same
// texts wherever their protocols agree; each place they differ is named
// in the table with both daemons' replies.

// conformStep is one script step: the bytes a client sends and the reply
// lines it reads back. A step with no replies expects none. both holds the
// replies when the daemons agree; streamd and router hold them where they
// differ.
type conformStep struct {
	name            string
	send            []byte
	both            []string
	streamd, router []string
}

// conformScript is the shared script. The tuple step is silent on both
// daemons; it makes the router's sub ack carry a non-zero resume sequence.
func conformScript() []conformStep {
	badSchema := []byte{server.BwMagic, server.BwSchemaFrame}
	badSchema = binary.LittleEndian.AppendUint32(badSchema, 1)
	badSchema = append(badSchema, 0xff)
	line := func(s string) []byte { return []byte(s + "\n") }
	return []conformStep{
		{name: "malformed json", send: line(`this is not json`),
			both: []string{`{"kind":"err","error":"bad line: invalid character 'h' in literal true (expecting 'r')"}`}},
		{name: "unknown kind", send: line(`{"kind":"frobnicate"}`),
			both: []string{`{"kind":"err","error":"unknown kind \"frobnicate\""}`}},
		{name: "unknown source", send: line(`{"kind":"tuple","source":"nonexistent","t_ms":100,"attrs":{"x":1}}`),
			both: []string{`{"kind":"err","error":"unknown source \"nonexistent\""}`}},
		{name: "bad schema frame", send: badSchema,
			both: []string{`{"kind":"err","error":"snap: corrupt snapshot: bad uvarint at offset 0"}`}},
		{name: "ping", send: line(`{"kind":"ping"}`),
			streamd: []string{`{"kind":"pong"}`},
			router:  []string{`{"kind":"pong","version":1}`}},
		{name: "join", send: line(`{"kind":"join"}`),
			streamd: []string{`{"kind":"err","error":"\"join\" requires a cluster worker (-mode worker)"}`},
			router:  []string{`{"kind":"err","error":"join offer needs addr"}`}},
		{name: "leave", send: line(`{"kind":"leave"}`),
			streamd: []string{`{"kind":"err","error":"unknown kind \"leave\""}`},
			router:  []string{`{"kind":"err","error":"leave needs addr"}`}},
		{name: "tuple", send: line(`{"kind":"tuple","source":"locations","t_ms":100,"keys":{"tag":1},"attrs":{"x":1,"y":1,"weight":1}}`)},
		{name: "sub", send: line(`{"kind":"sub"}`),
			streamd: []string{`{"kind":"ok"}`},
			router:  []string{`{"kind":"ok","alerts":0,"seq":1}`}},
		{name: "sub again", send: line(`{"kind":"sub"}`),
			both: []string{`{"kind":"err","error":"already subscribed"}`}},
		{name: "ckpt without a store", send: line(`{"kind":"ckpt"}`),
			streamd: []string{`{"kind":"err","error":"checkpoint: checkpointing disabled (no store configured)"}`},
			router:  []string{`{"kind":"err","error":"checkpoint: checkpointing needs -replicas 2 or a router -data-dir (nothing to install or persist)"}`}},
		// The subscribed connection also receives the epoch's "done"; its
		// order against the "ok" is not part of the protocol.
		{name: "end", send: line(`{"kind":"end"}`),
			both: []string{`{"kind":"done","alerts":0}`, `{"kind":"ok"}`}},
	}
}

// conformRun plays the script on one connection to addr, then sends a line
// over the 1 MiB limit on a second connection, and on a third that
// subscribed first: each must earn an err reply and then a close. It
// returns every reply read, per step name; the script connection stays
// open until the test ends.
func conformRun(t *testing.T, addr string, script []conformStep, want func(conformStep) []string) map[string][]string {
	t.Helper()
	got := map[string][]string{}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	readLine := func() (string, error) {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		s, err := r.ReadString('\n')
		return strings.TrimSuffix(s, "\n"), err
	}
	for _, st := range script {
		if _, err := conn.Write(st.send); err != nil {
			t.Fatalf("%s: send: %v", st.name, err)
		}
		for range want(st) {
			s, err := readLine()
			if err != nil {
				t.Fatalf("%s: read: %v", st.name, err)
			}
			got[st.name] = append(got[st.name], s)
		}
		sort.Strings(got[st.name])
	}
	got["oversized line"] = conformOversized(t, addr, false)
	got["oversized line after sub"] = conformOversized(t, addr, true)
	return got
}

// conformOversized sends a line over the 1 MiB limit on a new connection,
// subscribed first when sub is set, and returns the replies read up to the
// close: the sub ack, if any, then the err. A subscribed connection's
// reply rides its subscriber queue, so it arrives only if the pump drains
// before the socket closes.
func conformOversized(t *testing.T, addr string, sub bool) []string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got []string
	if sub {
		if _, err := c.Write([]byte(`{"kind":"sub"}` + "\n")); err != nil {
			t.Fatalf("oversized line after sub: send sub: %v", err)
		}
		s, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("oversized line after sub: read the ack: %v", err)
		}
		got = append(got, strings.TrimSuffix(s, "\n"))
	}
	go c.Write(append([]byte(strings.Repeat("x", 1<<20+1)), '\n'))
	for {
		s, err := r.ReadString('\n')
		if err != nil {
			return got
		}
		got = append(got, strings.TrimSuffix(s, "\n"))
	}
}

// TestClientProtocolConformance runs the client-protocol script against
// streamd and against a router over one worker: identical reply kinds on
// every step, identical texts where the daemons agree today, the
// differences (sub-ack resume fields, pong version, ckpt error text, the
// router-only join and leave) named per daemon, and matching counters.
func TestClientProtocolConformance(t *testing.T) {
	cfg := clusterQ1Cfg()
	sd, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		NewPlan:    server.Q1Plan(cfg),
		FlushEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sd.Close() })
	cl := startCluster(t, 1, cfg, nil)

	script := conformScript()
	oversized := `{"kind":"err","error":"read error: bwire: line exceeds 1048576 bytes"}`
	daemons := []struct {
		name string
		addr string
		want func(conformStep) []string
	}{
		{"streamd", sd.Addr().String(), func(st conformStep) []string {
			if st.streamd != nil {
				return st.streamd
			}
			return st.both
		}},
		{"router", cl.rt.Addr().String(), func(st conformStep) []string {
			if st.router != nil {
				return st.router
			}
			return st.both
		}},
	}
	kinds := map[string][]string{}
	for _, d := range daemons {
		got := conformRun(t, d.addr, script, d.want)
		for _, st := range script {
			want := append([]string(nil), d.want(st)...)
			sort.Strings(want)
			if strings.Join(got[st.name], "\n") != strings.Join(want, "\n") {
				t.Errorf("%s, %s: replies %q, want %q", d.name, st.name, got[st.name], want)
			}
			kinds[st.name] = append(kinds[st.name], replyKinds(t, got[st.name]))
		}
		if g := got["oversized line"]; len(g) != 1 || g[0] != oversized {
			t.Errorf("%s, oversized line: replies %q, want %q", d.name, g, oversized)
		}
		if g := got["oversized line after sub"]; len(g) != 2 || replyKinds(t, g[:1]) != "ok" || g[1] != oversized {
			t.Errorf("%s, oversized line after sub: replies %q, want the sub ack, then %q", d.name, g, oversized)
		}
	}
	for _, st := range script {
		if k := kinds[st.name]; len(k) != 2 || k[0] != k[1] {
			t.Errorf("%s: reply kinds differ between streamd and router: %q", st.name, k)
		}
	}

	// Counters: one tuple ingested; every refused message counts, except
	// the router's join and leave (answered, not refused as unknown).
	// Decode errors: three on the script connection — malformed, unknown
	// source, bad schema — and each oversized line on its own, closed one.
	waitConns := func(n func() int) {
		deadline := time.Now().Add(5 * time.Second)
		for n() != 1 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitConns(func() int { return len(sd.Stats().Conns) })
	waitConns(func() int { return len(cl.rt.Stats().Conns) })
	ss, rs := sd.Stats(), cl.rt.Stats()
	if ss.Ingested != 1 || ss.IngestErrors != 7 {
		t.Errorf("streamd: ingested %d with %d errors, want 1 with 7", ss.Ingested, ss.IngestErrors)
	}
	if rs.Ingested != 1 || rs.IngestErrors != 6 {
		t.Errorf("router: ingested %d with %d errors, want 1 with 6", rs.Ingested, rs.IngestErrors)
	}
	for name, conns := range map[string][]server.ConnStatsz{"streamd": ss.Conns, "router": rs.Conns} {
		if len(conns) != 1 || conns[0].DecodeErrors != 3 || conns[0].LinesIn != 11 || conns[0].FramesIn != 1 || conns[0].Proto != "bin" {
			t.Errorf("%s: connection rows %+v, want one bin connection with 11 lines, 1 frame and 3 decode errors", name, conns)
		}
	}
}

// replyKinds is the kinds of a step's replies, in reply order.
func replyKinds(t *testing.T, lines []string) string {
	t.Helper()
	var ks []string
	for _, l := range lines {
		var m server.Msg
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("reply %q: %v", l, err)
		}
		ks = append(ks, m.Kind)
	}
	return strings.Join(ks, ",")
}
