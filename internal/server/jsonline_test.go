package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/snap"
	"repro/internal/stream"
)

// liftedBytes is a tuple's snapshot codec encoding with its fresh identity
// (ID and lineage, which every lift draws anew) zeroed, so two lifts of
// the same input compare equal.
func liftedBytes(t testing.TB, u *core.UTuple) string {
	t.Helper()
	u.ID, u.Lin = 0, lineage.NewSet(0)
	var w snap.Writer
	if err := stream.NewTupleCodec().Encode(&w, core.Wrap(u)); err != nil {
		t.Fatalf("encode lifted tuple: %v", err)
	}
	return fmt.Sprintf("%x", w.Bytes())
}

// referenceLine is what the daemon made of a line before LineDecoder:
// json.Unmarshal into Msg, the null t_ms and key check for a tuple, then
// ParseTuple (carrying the line's seq and source).
func referenceLine(t testing.TB, line []byte) string {
	var m Msg
	if err := json.Unmarshal(line, &m); err != nil {
		return "bad line: " + err.Error()
	}
	if m.Kind != KindTuple {
		return "kind " + m.Kind
	}
	if err := checkTupleNulls(line); err != nil {
		return "bad line: " + err.Error()
	}
	u, err := ParseTuple(m)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("tuple source=%q seq=%d %s", m.Source, m.Seq, liftedBytes(t, u))
}

// decodedLine is the same summary through a LineDecoder.
func decodedLine(t testing.TB, d *LineDecoder, line []byte) string {
	m, err := d.Decode(line)
	if err != nil {
		return "bad line: " + err.Error()
	}
	if m.Kind != KindTuple {
		return "kind " + m.Kind
	}
	bts, err := d.Tuple()
	if err != nil {
		return "error: " + err.Error()
	}
	bt := &bts[0]
	if len(bts) != 1 || bt.Shard != -1 || bt.Replica || bt.Schema.Source != m.Source {
		t.Fatalf("line %s: tuple %+v is not an unrouted one-tuple batch of source %q", line, bts, m.Source)
	}
	u, err := bt.UTuple()
	if err != nil {
		t.Fatalf("line %s: checked tuple fails to lift: %v", line, err)
	}
	return fmt.Sprintf("tuple source=%q seq=%d %s", m.Source, bt.Seq, liftedBytes(t, u))
}

// traceLines encodes the wire trace as the lines a JSON client sends.
func traceLines(t testing.TB, objects, events int) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, m := range wireTrace(t, objects, events) {
		line, err := EncodeLine(m)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
	}
	return lines
}

// lineEdgeCases are lines at and past the edge of the scanner's subset;
// scan marks the ones the scanner must take itself.
var lineEdgeCases = []struct {
	line string
	scan bool
}{
	{`{"kind":"tuple","source":"locations","t_ms":100,"keys":{"tag":7},"attrs":{"weight":140,"x":[1.5,0.5],"y":2}}`, true},
	{` { "kind" : "tuple" ,	"t_ms" : 100 , "attrs" : { "x" : [ 1 , 2 ] , "w" : 3 } } `, true},
	{`{"attrs":{"y":2,"x":1,"a":[0,1]},"keys":{"b":2,"a":-1},"t_ms":5,"kind":"tuple","source":"temps"}`, true},
	{`{"kind":"tuple","t_ms":0,"keys":{},"attrs":{"x":-0,"y":[-0.0,0],"z":1E+2,"w":2.5e-3}}`, true},
	{`{"kind":"tuple","t_ms":-0,"attrs":{"x":0.1000000000000000055511151231257827021181583404541015625}}`, true},
	{`{"kind":"tuple","t_ms":9223372036854775807,"keys":{"k":-9223372036854775808},"attrs":{"x":1e308}}`, true},
	{`{"kind":"tuple","t_ms":100,"attrs":{"x":[1,-2],"weight":140}}`, true},
	{`{"kind":"tuple","t_ms":-5,"attrs":{"x":1,"weight":140}}`, true},
	{`{"kind":"tuple","source":"nonexistent","t_ms":100,"attrs":{"x":1}}`, true},
	// Case variants and duplicates: encoding/json folds case and lets the
	// last duplicate win (merging duplicated maps).
	{`{"KIND":"tuple","t_ms":1,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","Kind":"sub","t_ms":1,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","T_MS":3,"attrs":{"x":1}}`, false},
	{`{"kind":"Tuple","t_ms":1,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"t_ms":2,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1},"attrs":{"y":2}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1,"x":[2,1]}}`, false},
	{`{"kind":"tuple","t_ms":1,"keys":{"a":1,"a":2},"attrs":{"x":1}}`, false},
	// Escapes, control bytes and non-ASCII bytes.
	{`{"kind":"tuple","t_ms":1,"attrs":{"\u0078":1}}`, false},
	{`{"kind":"tuple","source":"loc\u0061tions","t_ms":1,"attrs":{"x":1}}`, false},
	{`{"kind":"t\u0075ple","t_ms":1,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"é":1,"x":2}}`, false},
	{"{\"kind\":\"tuple\",\"t_ms\":1,\"attrs\":{\"\xff\":1}}", false},
	{"{\"kind\":\"tuple\",\"t_ms\":1,\"attrs\":{\"a\tb\":1}}", false},
	// Numbers outside the subset or the types.
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1e999}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[1,1e999]}}`, false},
	{`{"kind":"tuple","t_ms":1e999,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1.0,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1e3,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":9223372036854775808,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"keys":{"tag":1.5},"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"keys":{"tag":-9223372036854775809},"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":01,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":.5}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1.}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1e}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":+1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":-}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":"1"}}`, false},
	{`{"kind":"tuple","t_ms":"1","attrs":{"x":1}}`, false},
	{`{"kind":"tuple","source":5,"t_ms":1,"attrs":{"x":1}}`, false},
	// Structure: trailing commas, trailing garbage, empty and missing parts.
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1,}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1},}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[1,2,]}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1}} x`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1}}{}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{}}`, false},
	{`{"kind":"tuple","t_ms":1}`, false},
	{`{"t_ms":1,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"keys":{"":4},"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[]}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[1]}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[1,2,3]}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[[1],2]}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":{"mean":1}}}`, false},
	{`{}`, false},
	{``, false},
	{`[]`, false},
	{`not json`, false},
	// Unknown and routing fields.
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":1},"note":"hi"}`, false},
	{`{"kind":"tuple","t_ms":1,"seq":9,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"shard":0,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"replica":true,"attrs":{"x":1}}`, false},
	// Nulls.
	{`null`, false},
	{`{"kind":"tuple","t_ms":null,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"keys":null,"attrs":{"x":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":null}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":null,"weight":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[null,2],"weight":1}}`, false},
	{`{"kind":"tuple","t_ms":1,"attrs":{"x":[1,null]}}`, false},
	// Other kinds.
	{`{"kind":"sub"}`, false},
	{`{"kind":"end"}`, false},
	{`{"kind":"frobnicate"}`, false},
}

// TestLineDecoderMatchesReference: every trace line takes the scanner and
// lifts to the core tuple ParseTuple builds; every edge line gives the
// reference result or the reference error text, and the scanner takes
// exactly the lines marked for it. One decoder reads everything in turn
// (shapes switching under its last-shape check), a fresh one each line.
func TestLineDecoderMatchesReference(t *testing.T) {
	shared := NewLineDecoder()
	check := func(line []byte, scan bool) {
		t.Helper()
		want := referenceLine(t, line)
		fresh := NewLineDecoder()
		for _, d := range []*LineDecoder{shared, fresh} {
			if got := decodedLine(t, d, line); got != want {
				t.Errorf("line %s:\n got %s\nwant %s", line, got, want)
			}
			if d.scanned != scan {
				t.Errorf("line %s: scanned = %v, want %v", line, d.scanned, scan)
			}
		}
	}
	for _, line := range traceLines(t, 10, 60) {
		check(line, true)
	}
	for _, tc := range lineEdgeCases {
		check([]byte(tc.line), tc.scan)
	}
}

// TestAttrNullRejected: a null attribute, bare or inside the pair, is an
// error on every JSON path — never a silent zero.
func TestAttrNullRejected(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"kind":"tuple","t_ms":1,"attrs":{"x":null,"weight":1}}`, "attr must be a number or a [mean, std] pair, not null"},
		{`{"kind":"tuple","t_ms":1,"attrs":{"x":[null,2],"weight":1}}`, "attr [mean, std] pair has a null element"},
		{`{"kind":"tuple","t_ms":1,"attrs":{"x":[1, null]}}`, "attr [mean, std] pair has a null element"},
	} {
		var m Msg
		if err := json.Unmarshal([]byte(tc.line), &m); err == nil || err.Error() != tc.want {
			t.Errorf("json.Unmarshal %s: error %v, want %q (decoded %+v)", tc.line, err, tc.want, m.Attrs)
		}
		if _, err := NewLineDecoder().Decode([]byte(tc.line)); err == nil || err.Error() != tc.want {
			t.Errorf("LineDecoder %s: error %v, want %q", tc.line, err, tc.want)
		}
	}
}

// TestKeyAndTimeNullRejected: a null t_ms or key value is an error on the
// JSON line path, not the silent zero json.Unmarshal decodes it to.
func TestKeyAndTimeNullRejected(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"kind":"tuple","t_ms":5,"keys":{"tag":null},"attrs":{"x":1,"weight":1}}`, `tuple key "tag" is null`},
		{`{"kind":"tuple","t_ms":5,"keys":{"tag":3,"bin":null,"aisle":null},"attrs":{"x":1}}`, `tuple key "aisle" is null`},
		{`{"kind":"tuple","t_ms":null,"keys":{"tag":1},"attrs":{"x":1,"weight":1}}`, "tuple t_ms is null"},
		{`{"kind":"tuple","source":"temps","T_MS":null,"attrs":{"temp":[60,2]}}`, "tuple t_ms is null"},
	} {
		if _, err := NewLineDecoder().Decode([]byte(tc.line)); err == nil || err.Error() != tc.want {
			t.Errorf("LineDecoder %s: error %v, want %q", tc.line, err, tc.want)
		}
	}
	// A null elsewhere — a string member, a whole keys object — stays valid.
	for _, line := range []string{
		`{"kind":"tuple","t_ms":5,"keys":null,"attrs":{"x":1}}`,
		`{"kind":"tuple","source":"null","t_ms":5,"attrs":{"x":1}}`,
	} {
		if _, err := NewLineDecoder().Decode([]byte(line)); err != nil {
			t.Errorf("LineDecoder %s: %v", line, err)
		}
	}
}

// FuzzLineDecoder: on any input the decoder agrees with the reference path
// and never panics — read by a fresh decoder, then again by the same one
// (its last-shape check now primed).
func FuzzLineDecoder(f *testing.F) {
	for _, line := range traceLines(f, 3, 20) {
		f.Add(line)
	}
	for _, tc := range lineEdgeCases {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want := referenceLine(t, line)
		d := NewLineDecoder()
		for pass := 0; pass < 2; pass++ {
			if got := decodedLine(t, d, line); got != want {
				t.Fatalf("pass %d, line %q:\n got %s\nwant %s", pass, line, got, want)
			}
		}
	})
}

// TestLineDecoderAllocs pins the scanner's claim: decoding and checking a
// steady-state tuple line allocates nothing.
func TestLineDecoderAllocs(t *testing.T) {
	lines := traceLines(t, 10, 60)
	d := NewLineDecoder()
	replay := func() {
		for _, line := range lines {
			if _, err := d.Decode(line); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if _, err := d.Tuple(); err != nil {
				t.Fatalf("tuple: %v", err)
			}
			if !d.scanned {
				t.Fatalf("line %s not scanned", line)
			}
		}
	}
	replay()
	if avg := testing.AllocsPerRun(20, replay); avg != 0 {
		t.Fatalf("steady-state Decode+Tuple allocates %.1f allocs per replay of %d lines, want 0", avg, len(lines))
	}
}

// TestLineDecoderLiftAllocs is TestBwTupleLiftAllocs for JSON tuple lines:
// a LineDecoder tuple lifts through the same path, at the same budget.
func TestLineDecoderLiftAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lines := traceLines(t, 10, 60)
	d := NewLineDecoder()
	allocs, bytes := liftCost(func() int {
		for _, line := range lines {
			if _, err := d.Decode(line); err != nil {
				t.Fatalf("decode: %v", err)
			}
			bts, err := d.Tuple()
			if err != nil {
				t.Fatalf("tuple: %v", err)
			}
			u, err := bts[0].UTuple()
			if err != nil {
				t.Fatalf("lift: %v", err)
			}
			core.Wrap(u)
		}
		return len(lines)
	})
	t.Logf("%.4f allocs, %.1f B per lift", allocs, bytes)
	if allocs > liftAllocs || bytes > liftBytes {
		t.Errorf("lift costs %.4f allocs and %.1f B per tuple, budget %d and %d", allocs, bytes, liftAllocs, liftBytes)
	}
}

// oddLine rewrites a canonical tuple line into an equivalent one the
// reference decodes to the same tuple: in the scanner's subset (reordered
// members, whitespace) or outside it (an unknown member, an escaped name,
// a case-variant field).
func oddLine(t *testing.T, m Msg, variant int) string {
	t.Helper()
	raw, err := EncodeLine(m)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(string(raw), "\n")
	switch variant {
	case 1:
		return strings.NewReplacer(",", " ,\t", ":", " : ").Replace(line)
	case 2:
		b, err := json.Marshal(map[string]any{
			"attrs": m.Attrs, "keys": m.Keys, "kind": m.Kind, "source": m.Source, "t_ms": m.T,
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	case 3:
		return strings.Replace(line, `{"kind"`, `{"note":"odd","kind"`, 1)
	case 4:
		return strings.Replace(line, `"x":`, `"\u0078":`, 1)
	case 5:
		return strings.Replace(line, `"kind"`, `"Kind"`, 1)
	}
	return line
}

// TestServerOddJSONLinesByteIdentical: a JSON client mixing canonical
// lines with odd-but-valid ones, inside and outside the scanner's subset,
// gets alerts byte-identical to the offline reference.
func TestServerOddJSONLinesByteIdentical(t *testing.T) {
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
	for i, m := range msgs {
		if _, err := ingest.w.WriteString(oddLine(t, m, i%6) + "\n"); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	ingest.send(Msg{Kind: KindEnd})
	if m := ingest.recv(30 * time.Second); m.Kind != KindOK {
		t.Fatalf("end: got %+v", m)
	}
	got := collectAlertsUntilDone(t, sub)
	if strings.Join(got, "") != strings.Join(ref, "") {
		t.Fatalf("odd-line replay diverges from offline reference:\nref (%d):\n%s\ngot (%d):\n%s",
			len(ref), strings.Join(ref, ""), len(got), strings.Join(got, ""))
	}
	if st := s.Stats(); st.IngestErrors != 0 || st.Ingested != uint64(len(msgs)) {
		t.Fatalf("ingested %d with %d errors, want %d with none", st.Ingested, st.IngestErrors, len(msgs))
	}
}

// TestServerTupleErrorsCountedPerConnection: a tuple rejected for a
// semantic reason counts as one ingest error and one decode error on its
// connection, whether it came as a JSON line or inside a frame.
func TestServerTupleErrorsCountedPerConnection(t *testing.T) {
	s := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	c := dialServer(t, s)
	c.sendRaw(`{"kind":"tuple","t_ms":100,"attrs":{"x":[1,-2],"weight":140}}`)
	lineErr := c.recv(5 * time.Second)
	b := NewBwBatcher()
	if err := b.Add(Msg{Kind: KindTuple, T: 100, Attrs: map[string]Attr{"x": {Mean: 1, Std: -2}, "weight": PointAttr(140)}}); err != nil {
		t.Fatal(err)
	}
	c.sendFrames(b.Take())
	frameErr := c.recv(5 * time.Second)
	if lineErr.Kind != KindErr || lineErr.Error != `attr "x": attr std -2 is negative` {
		t.Errorf("line reply %+v", lineErr)
	}
	if frameErr.Kind != KindErr || frameErr.Error != `tuple 0: attr "x": attr std -2 is negative` {
		t.Errorf("frame reply %+v", frameErr)
	}
	st := s.Stats()
	if st.IngestErrors != 2 || len(st.Conns) != 1 || st.Conns[0].DecodeErrors != 2 {
		t.Fatalf("ingest_errors %d, conns %+v: want 2 ingest errors and one connection with 2 decode errors", st.IngestErrors, st.Conns)
	}
}
