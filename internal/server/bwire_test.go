package server

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// encodeBinary runs msgs through a fresh BwBatcher — schema frames
// interleaved with batched TUPLES frames, exactly the byte stream a
// binary replay session sends.
func encodeBinary(t testing.TB, msgs []Msg) []byte {
	t.Helper()
	bb := NewBwBatcher()
	for _, m := range msgs {
		if err := bb.Add(m); err != nil {
			t.Fatalf("batch tuple: %v", err)
		}
	}
	return bb.Take()
}

// decodeBinary feeds an encoded stream back through WireReader+BwDecoder
// and returns every tuple as its JSON-protocol Msg equivalent.
func decodeBinary(t testing.TB, raw []byte) []Msg {
	t.Helper()
	wr := NewWireReader(bytes.NewReader(raw), 0)
	dec := NewBwDecoder()
	var out []Msg
	for {
		line, fr, err := wr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if line != nil {
			t.Fatalf("unexpected line in binary stream: %q", line)
		}
		switch fr.Kind {
		case BwSchemaFrame:
			if _, err := dec.AddSchema(fr.Payload); err != nil {
				t.Fatalf("add schema: %v", err)
			}
		case BwTuples:
			bts, err := dec.DecodeTuples(fr.Payload)
			if err != nil {
				t.Fatalf("decode tuples: %v", err)
			}
			for i := range bts {
				out = append(out, msgOf(&bts[i]))
			}
		default:
			t.Fatalf("unexpected frame kind %#x", fr.Kind)
		}
	}
}

// msgOf renders a decoded tuple as its JSON-protocol equivalent.
func msgOf(bt *BwTuple) Msg {
	m := Msg{Kind: KindTuple, Source: bt.Schema.Source, T: bt.T, Seq: bt.Seq, Replica: bt.Replica}
	if bt.Shard >= 0 {
		s := bt.Shard
		m.Shard = &s
	}
	if len(bt.Keys) > 0 {
		m.Keys = make(map[string]int64, len(bt.Keys))
		for i, v := range bt.Keys {
			m.Keys[bt.Schema.KeyNames[i]] = v
		}
	}
	m.Attrs = make(map[string]Attr, len(bt.Attrs))
	for i, a := range bt.Attrs {
		m.Attrs[bt.Schema.AttrNames[i]] = a
	}
	return m
}

// TestBwireRoundTrip: encoding a realistic wire trace and decoding it
// back yields Msgs identical to the originals — the binary path carries
// exactly what the JSON path carries.
func TestBwireRoundTrip(t *testing.T) {
	msgs := wireTrace(t, 10, 60)
	got := decodeBinary(t, encodeBinary(t, msgs))
	if len(got) != len(msgs) {
		t.Fatalf("round trip returned %d msgs, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(got[i], msgs[i]) {
			t.Fatalf("msg %d diverged:\n got %+v\nwant %+v", i, got[i], msgs[i])
		}
	}
}

// TestBwireUTupleMatchesParseTuple: the zero-alloc lift (BwTuple.UTuple)
// must build the same engine tuple as the JSON path's ParseTuple.
func TestBwireUTupleMatchesParseTuple(t *testing.T) {
	msgs := wireTrace(t, 10, 60)
	raw := encodeBinary(t, msgs)
	wr := NewWireReader(bytes.NewReader(raw), 0)
	dec := NewBwDecoder()
	i := 0
	for {
		_, fr, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if fr.Kind == BwSchemaFrame {
			if _, err := dec.AddSchema(fr.Payload); err != nil {
				t.Fatalf("add schema: %v", err)
			}
			continue
		}
		bts, err := dec.DecodeTuples(fr.Payload)
		if err != nil {
			t.Fatalf("decode tuples: %v", err)
		}
		for j := range bts {
			want, err := ParseTuple(msgs[i])
			if err != nil {
				t.Fatalf("ParseTuple msg %d: %v", i, err)
			}
			got, err := bts[j].UTuple()
			if err != nil {
				t.Fatalf("UTuple msg %d: %v", i, err)
			}
			if got.TS != want.TS || !reflect.DeepEqual(got.Keys, want.Keys) ||
				!reflect.DeepEqual(got.Names(), want.Names()) {
				t.Fatalf("tuple %d diverged:\n got %+v\nwant %+v", i, got, want)
			}
			for _, name := range want.Names() {
				if !reflect.DeepEqual(got.Attr(name), want.Attr(name)) {
					t.Fatalf("tuple %d attr %q diverged: got %+v want %+v",
						i, name, got.Attr(name), want.Attr(name))
				}
			}
			i++
		}
	}
	if i != len(msgs) {
		t.Fatalf("decoded %d tuples, want %d", i, len(msgs))
	}
}

// TestBwireCanonicalReencode: decode→encode is a fixpoint for frames the
// encoder produced — EncodeTuplesFrame(decode(f)) == f byte for byte.
func TestBwireCanonicalReencode(t *testing.T) {
	raw := encodeBinary(t, wireTrace(t, 10, 60))
	wr := NewWireReader(bytes.NewReader(raw), 0)
	dec := NewBwDecoder()
	frames := 0
	for {
		_, fr, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if fr.Kind == BwSchemaFrame {
			sc, err := dec.AddSchema(fr.Payload)
			if err != nil {
				t.Fatalf("add schema: %v", err)
			}
			if got := sc.EncodeFrame(); !bytes.Equal(got[bwHeaderLen:], fr.Payload) {
				t.Fatalf("schema %d re-encode diverged", sc.ID)
			}
			continue
		}
		bts, err := dec.DecodeTuples(fr.Payload)
		if err != nil {
			t.Fatalf("decode tuples: %v", err)
		}
		re := EncodeTuplesFrame(bts[0].Schema, bts)
		if !bytes.Equal(re[bwHeaderLen:], fr.Payload) {
			t.Fatalf("tuples frame re-encode diverged:\n got % x\nwant % x", re[bwHeaderLen:], fr.Payload)
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("no tuples frames decoded")
	}
}

// TestBwireSchemaRejects: structurally invalid schema frames must fail
// at registration, not corrupt later decodes.
func TestBwireSchemaRejects(t *testing.T) {
	enc := func(id uint64, source string, keys, attrs []string) []byte {
		sc := &BwSchema{ID: id, Source: source, KeyNames: keys, AttrNames: attrs}
		f := sc.EncodeFrame()
		return f[bwHeaderLen:]
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"unsorted keys", enc(1, "locations", []string{"b", "a"}, []string{"x"})},
		{"duplicate keys", enc(1, "locations", []string{"tag", "tag"}, []string{"x"})},
		{"unsorted attrs", enc(1, "locations", nil, []string{"y", "x"})},
		{"empty attr name", enc(1, "locations", nil, []string{""})},
		{"no attrs", enc(1, "locations", []string{"tag"}, nil)},
		{"truncated", enc(1, "locations", nil, []string{"x"})[:2]},
	}
	for _, tc := range cases {
		d := NewBwDecoder()
		if _, err := d.AddSchema(tc.payload); err == nil {
			t.Errorf("%s: schema accepted, want error", tc.name)
		}
	}

	// Redefining an id is a protocol error even with identical contents.
	d := NewBwDecoder()
	ok := enc(7, "locations", []string{"tag"}, []string{"x"})
	if _, err := d.AddSchema(ok); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if _, err := d.AddSchema(ok); err == nil {
		t.Error("schema id redefinition accepted, want error")
	}
}

// TestBwireDecodeTuplesRejects: malformed TUPLES payloads fail cleanly.
func TestBwireDecodeTuplesRejects(t *testing.T) {
	d := NewBwDecoder()
	sc := &BwSchema{ID: 1, Source: "locations", KeyNames: []string{"tag"}, AttrNames: []string{"x"}}
	f := sc.EncodeFrame()
	if _, err := d.AddSchema(f[bwHeaderLen:]); err != nil {
		t.Fatalf("add schema: %v", err)
	}
	valid := EncodeTuplesFrame(sc, []BwTuple{{
		Schema: sc, T: 100, Shard: -1, Keys: []int64{5}, Attrs: []Attr{{Mean: 1, Std: 2}},
	}})[bwHeaderLen:]
	if _, err := d.DecodeTuples(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown schema", append([]byte{0x63}, valid[1:]...)},
		{"zero count", append([]byte{valid[0], 0}, valid[2:]...)},
		{"count exceeds payload", append([]byte{valid[0], 0x40}, valid[2:]...)},
		{"unknown flags", append([]byte{valid[0], valid[1], 0x80}, valid[3:]...)},
		{"truncated body", valid[:len(valid)-4]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xEE)},
	}
	for _, tc := range cases {
		if _, err := d.DecodeTuples(tc.payload); err == nil {
			t.Errorf("%s: payload accepted, want error", tc.name)
		}
	}
}

// tuplePayloads registers raw's schema frames on dec and returns copies of
// its tuples-frame payloads (decode scratch must not alias the reader
// buffer for a repeated replay).
func tuplePayloads(t *testing.T, dec *BwDecoder, raw []byte) [][]byte {
	t.Helper()
	wr := NewWireReader(bytes.NewReader(raw), 0)
	var payloads [][]byte
	for {
		_, fr, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if fr.Kind == BwSchemaFrame {
			if _, err := dec.AddSchema(fr.Payload); err != nil {
				t.Fatalf("add schema: %v", err)
			}
			continue
		}
		payloads = append(payloads, append([]byte(nil), fr.Payload...))
	}
	if len(payloads) == 0 {
		t.Fatal("no tuples frames")
	}
	return payloads
}

// TestBwireDecodeAllocs pins the tentpole's core claim: steady-state
// tuple decoding allocates nothing — the schema table, tuple scratch,
// and key/attr scratch are all reused across frames.
func TestBwireDecodeAllocs(t *testing.T) {
	dec := NewBwDecoder()
	payloads := tuplePayloads(t, dec, encodeBinary(t, wireTrace(t, 10, 60)))
	// Warm the decoder scratch, then demand zero allocations per frame.
	for _, p := range payloads {
		if _, err := dec.DecodeTuples(p); err != nil {
			t.Fatalf("warmup decode: %v", err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, p := range payloads {
			if _, err := dec.DecodeTuples(p); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state DecodeTuples allocates %.1f allocs per replay, want 0", avg)
	}
}

// liftCost runs lift — one replay of a trace, returning how many tuples it
// lifted — and returns the allocations and bytes per lifted tuple.
func liftCost(lift func() int) (allocs, bytes float64) {
	n := lift()
	allocs = testing.AllocsPerRun(20, func() { lift() }) / float64(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		lift()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(20*n)
}

// Ingest budget per lifted tuple, decoding excluded (it is free: see
// TestBwireDecodeAllocs and TestLineDecoderAllocs): the UTuple lift and the
// stream carrier the daemon wraps it in. Three allocations — the tuple with
// its key and lineage id, its exact-size attribute slots, the carrier with
// its one-field array — down from 9 when every attribute was a boxed Dist.
// The bytes ceiling is the figure the boxed lift measured on the wire
// trace's four attributes, 368 B; the by-value lift measured 336 B (the
// tuple 192, the slots 64, the carrier 80).
const (
	liftAllocs = 3
	liftBytes  = 368
)

// TestBwTupleLiftAllocs pins the other half of the binary ingest path: the
// lift of a decoded tuple into the engine, carrier included.
func TestBwTupleLiftAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	dec := NewBwDecoder()
	payloads := tuplePayloads(t, dec, encodeBinary(t, wireTrace(t, 10, 60)))
	allocs, bytes := liftCost(func() int {
		n := 0
		for _, p := range payloads {
			bts, err := dec.DecodeTuples(p)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for i := range bts {
				u, err := bts[i].UTuple()
				if err != nil {
					t.Fatalf("lift: %v", err)
				}
				core.Wrap(u)
			}
			n += len(bts)
		}
		return n
	})
	t.Logf("%.4f allocs, %.1f B per lift", allocs, bytes)
	if allocs > liftAllocs || bytes > liftBytes {
		t.Errorf("lift costs %.4f allocs and %.1f B per tuple, budget %d and %d", allocs, bytes, liftAllocs, liftBytes)
	}
}

// sendFrames writes raw binary frame bytes on the test client's
// connection, interleaving with its JSON lines.
func (c *testClient) sendFrames(raw []byte) {
	c.t.Helper()
	if _, err := c.w.Write(raw); err != nil {
		c.t.Fatalf("send frames: %v", err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

// collectAlertsUntilDone drains the subscriber until the done line,
// checking the done alert count against what was seen.
func collectAlertsUntilDone(t *testing.T, sub *testClient) []string {
	t.Helper()
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
			return got
		}
		got = append(got, line)
	}
}

// TestServerBinaryReplayByteIdentical is the binary-protocol acceptance
// test: replaying the seeded trace as batched binary frames through the
// sharded live plan yields exactly the bytes of the offline unsharded
// synchronous run — same criterion TestServerReplayByteIdentical pins
// for JSON, same reference.
func TestServerBinaryReplayByteIdentical(t *testing.T) {
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
	ingest.sendFrames(EncodeBwHello())
	ingest.sendFrames(encodeBinary(t, msgs))
	ingest.send(Msg{Kind: KindEnd}) // control stays JSON on a binary connection
	if m := ingest.recv(30 * time.Second); m.Kind != KindOK {
		t.Fatalf("end: got %+v", m)
	}

	got := collectAlertsUntilDone(t, sub)
	if strings.Join(got, "") != strings.Join(ref, "") {
		t.Fatalf("binary replay diverges from offline reference:\nref (%d):\n%s\ngot (%d):\n%s",
			len(ref), strings.Join(ref, ""), len(got), strings.Join(got, ""))
	}

	// The connection section must label the ingest connection binary.
	var protos []string
	for _, c := range s.Stats().Conns {
		protos = append(protos, c.Proto)
	}
	if !contains(protos, "bin") {
		t.Errorf("statsz conns %v: no connection negotiated bin", protos)
	}
}

// TestServerMixedProtocolClients: one JSON client and one binary client
// feeding the same server interleave into a single stream whose alerts
// still match the offline reference, and /statsz labels each connection
// with its own negotiated protocol.
func TestServerMixedProtocolClients(t *testing.T) {
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

	half := len(msgs) / 2
	jsonC := dialServer(t, s)
	for _, m := range msgs[:half] {
		jsonC.send(m)
	}
	// The pong proves every preceding line on this connection has been
	// enqueued — only then may the binary client send the second half, so
	// the interleaved stream keeps the reference order.
	jsonC.send(Msg{Kind: KindPing})
	if m := jsonC.recv(10 * time.Second); m.Kind != KindPong {
		t.Fatalf("ping: got %+v", m)
	}
	binC := dialServer(t, s)
	binC.sendFrames(encodeBinary(t, msgs[half:]))
	binC.send(Msg{Kind: KindEnd})
	if m := binC.recv(30 * time.Second); m.Kind != KindOK {
		t.Fatalf("end: got %+v", m)
	}

	got := collectAlertsUntilDone(t, sub)
	if strings.Join(got, "") != strings.Join(ref, "") {
		t.Fatalf("mixed-protocol replay diverges from offline reference:\nref (%d):\n%s\ngot (%d):\n%s",
			len(ref), strings.Join(ref, ""), len(got), strings.Join(got, ""))
	}

	var protos []string
	for _, c := range s.Stats().Conns {
		protos = append(protos, c.Proto)
	}
	if !contains(protos, "json") || !contains(protos, "bin") {
		t.Errorf("statsz conns %v: want both json and bin connections", protos)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestServerDoneAlwaysReportsAlerts pins the omitempty regression: a
// stream that produced zero alerts must still carry the alerts field on
// its done line — {"kind":"done","alerts":0} — so resuming clients can
// tell "no alerts" from "field missing".
func TestServerDoneAlwaysReportsAlerts(t *testing.T) {
	s := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	sub := dialServer(t, s)
	sub.send(Msg{Kind: KindSub})
	// A fresh subscribe must NOT carry the field: the plain ok is the
	// "nothing to resume" contract.
	if ack := sub.recvLine(5 * time.Second); strings.Contains(ack, "alerts") {
		t.Fatalf("fresh subscribe ack carries alerts: %q", ack)
	}
	ingest := dialServer(t, s)
	ingest.send(Msg{Kind: KindEnd}) // empty stream: zero alerts
	if m := ingest.recv(10 * time.Second); m.Kind != KindOK {
		t.Fatalf("end: got %+v", m)
	}
	done := sub.recvLine(10 * time.Second)
	var m Msg
	if err := json.Unmarshal([]byte(done), &m); err != nil {
		t.Fatalf("bad done line %q: %v", done, err)
	}
	if m.Kind != KindDone {
		t.Fatalf("expected done, got %q", done)
	}
	if !strings.Contains(done, `"alerts":0`) {
		t.Fatalf("zero-alert done line omits the alerts field: %q", done)
	}
}

// FuzzBwireDecode: arbitrary bytes through the frame reader and both
// payload decoders must never panic, and any payload that decodes as a
// TUPLES frame must re-encode canonically — encode(decode(p)) is a
// fixpoint under another decode/encode round.
func FuzzBwireDecode(f *testing.F) {
	seedMsgs := wireTrace(f, 5, 30)
	bb := NewBwBatcher()
	for _, m := range seedMsgs {
		if err := bb.Add(m); err != nil {
			f.Fatal(err)
		}
	}
	raw := bb.Take()
	f.Add(raw)
	wr := NewWireReader(bytes.NewReader(raw), 0)
	for {
		_, fr, err := wr.Next()
		if err != nil {
			break
		}
		f.Add(append([]byte(nil), fr.Payload...))
	}
	f.Add([]byte{BwMagic, BwTuples, 0, 0, 0, 0})
	f.Add([]byte(`{"kind":"tuple","t_ms":1,"attrs":{"x":1}}` + "\n"))

	scFuzz := &BwSchema{ID: 1, Source: "locations", KeyNames: []string{"tag"},
		AttrNames: []string{"weight", "x", "y", "z"}}
	scFrame := scFuzz.EncodeFrame()

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame/line splitting over arbitrary bytes.
		wr := NewWireReader(bytes.NewReader(data), 1<<16)
		for i := 0; i < 64; i++ {
			if _, _, err := wr.Next(); err != nil {
				break
			}
		}
		// Arbitrary bytes as a schema payload.
		d := NewBwDecoder()
		d.AddSchema(data)
		// Arbitrary bytes as a tuples payload against a known schema.
		d2 := NewBwDecoder()
		sc, err := d2.AddSchema(scFrame[bwHeaderLen:])
		if err != nil {
			t.Fatalf("seed schema rejected: %v", err)
		}
		bts, err := d2.DecodeTuples(data)
		if err != nil {
			return
		}
		// Canonical fixpoint: a decoded payload re-encodes to bytes that
		// survive decode→encode unchanged (the input itself may use
		// non-minimal varints, so compare one generation removed).
		e1 := EncodeTuplesFrame(sc, bts)
		bts2, err := d2.DecodeTuples(e1[bwHeaderLen:])
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		e2 := EncodeTuplesFrame(sc, bts2)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("re-encode not a fixpoint:\n e1 % x\n e2 % x", e1, e2)
		}
	})
}

// FuzzParseTuple: arbitrary JSON through the line protocol's tuple
// parser must never panic — errors only.
func FuzzParseTuple(f *testing.F) {
	for _, m := range wireTrace(f, 3, 20) {
		line, err := EncodeLine(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"kind":"tuple","t_ms":100,"keys":{"tag":1},"attrs":{"x":[1,2],"weight":140}}`))
	f.Add([]byte(`{"kind":"tuple","t_ms":-5,"attrs":{"x":{"not":"an attr"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		u, err := ParseTuple(m)
		if err == nil && u == nil {
			t.Fatal("ParseTuple returned nil tuple with nil error")
		}
	})
}
