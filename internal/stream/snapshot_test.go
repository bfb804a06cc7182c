package stream

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/snap"
)

// snapTestSchema is shared by the codec tests; registered so decode returns
// the canonical pointer.
var snapTestSchema = NewSchema("v", "label")

func init() { RegisterSchema(snapTestSchema) }

// TestTupleCodecRoundTrip: every built-in field kind, schema interning, and
// the header fields (ID, TS, Seq) survive the round trip.
func TestTupleCodecRoundTrip(t *testing.T) {
	t1 := NewTuple(snapTestSchema, 100, 1.5, "alpha")
	t1.Seq = 41
	t2 := NewTuple(snapTestSchema, 200, -2.25, "beta")
	mixed := &Tuple{ID: 7, TS: -3, Fields: []Value{nil, int64(-9), int(12), true, Time(777)}}

	w := &snap.Writer{}
	enc := NewTupleCodec()
	for _, tp := range []*Tuple{t1, t2, mixed} {
		if err := enc.Encode(w, tp); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	r := snap.NewReader(w.Bytes())
	dec := NewTupleCodec()
	g1, g2, g3 := dec.Decode(r), dec.Decode(r), dec.Decode(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if g1.ID != t1.ID || g1.TS != 100 || g1.Seq != 41 || g1.Float("v") != 1.5 || g1.Str("label") != "alpha" {
		t.Fatalf("t1 round-trip: %v", g1.Format())
	}
	if g2.Float("v") != -2.25 || g2.Str("label") != "beta" {
		t.Fatalf("t2 round-trip: %v", g2.Format())
	}
	if g1.schema != snapTestSchema || g2.schema != snapTestSchema {
		t.Error("decoded schema is not the canonical registered pointer")
	}
	if g3.ID != 7 || g3.TS != -3 || g3.schema != nil || len(g3.Fields) != 5 {
		t.Fatalf("schema-less tuple: %+v", g3)
	}
	if g3.Fields[0] != nil || g3.Fields[1] != int64(-9) || g3.Fields[2] != int(12) ||
		g3.Fields[3] != true || g3.Fields[4] != Time(777) {
		t.Fatalf("schema-less fields: %#v", g3.Fields)
	}
}

// TestTupleCodecControlIdentity: control punctuations must decode with the
// canonical ctlSchema pointer — controlOf compares schema pointers, so a
// restored close punctuation with a merely name-equal schema would be
// silently treated as data.
func TestTupleCodecControlIdentity(t *testing.T) {
	ct := newControlTuple(ctlClose, 5000, 9)
	w := &snap.Writer{}
	if err := NewTupleCodec().Encode(w, ct); err != nil {
		t.Fatal(err)
	}
	r := snap.NewReader(w.Bytes())
	got := NewTupleCodec().Decode(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	c, ok := controlOf(got)
	if !ok {
		t.Fatal("decoded control tuple is not recognized as a punctuation")
	}
	if c.kind != ctlClose || c.end != 5000 || c.seq != 9 {
		t.Fatalf("control payload {%d %d %d}", c.kind, c.end, c.seq)
	}
}

// TestTupleCodecUnknownSchemaFallback: a schema that is not registered still
// round-trips (fresh schema, same names) — only identity-compared schemas
// need registration.
func TestTupleCodecUnknownSchemaFallback(t *testing.T) {
	s := NewSchema("only", "here")
	tp := NewTuple(s, 5, 1.0, 2.0)
	w := &snap.Writer{}
	if err := NewTupleCodec().Encode(w, tp); err != nil {
		t.Fatal(err)
	}
	r := snap.NewReader(w.Bytes())
	got := NewTupleCodec().Decode(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got.schema == s {
		t.Error("unregistered schema decoded to the encoder's pointer — impossible across processes")
	}
	if got.Float("only") != 1 || got.Float("here") != 2 {
		t.Fatalf("fields: %v", got.Format())
	}
}

// schemaBlob hand-encodes one tuple whose schema is interned with the
// given field names and whose fields are all nil.
func schemaBlob(names ...string) []byte {
	w := &snap.Writer{}
	w.Uvarint(1) // ID
	w.Varint(0)  // TS
	w.Uvarint(0) // Seq
	w.Uvarint(1) // first interned schema, names follow
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
	}
	w.Uvarint(uint64(len(names)))
	for range names {
		w.U8(valNil)
	}
	return w.Bytes()
}

// TestTupleCodecRejectsMalformedSchema: a decoded schema that repeats a
// field name is an error, not a NewSchema panic, and a name holding the
// intern key's separator does not resolve to the registered schema whose
// names it spells.
func TestTupleCodecRejectsMalformedSchema(t *testing.T) {
	r := snap.NewReader(schemaBlob("v", "v"))
	if got := NewTupleCodec().Decode(r); got != nil || r.Err() == nil {
		t.Fatalf("repeated field decoded to %v, err %v", got, r.Err())
	}
	r = snap.NewReader(schemaBlob("v\x00label"))
	got := NewTupleCodec().Decode(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got.schema == snapTestSchema || len(got.schema.Names) != 1 {
		t.Fatalf("one-field schema resolved to %v", got.schema.Names)
	}
}

// sumWindow is a deterministic WindowFunc: one output per close with the
// window's tuple count and field sum.
func sumWindow(window []*Tuple, end Time, emit Emit) {
	var sum float64
	for _, t := range window {
		sum += t.Float("v")
	}
	emit(NewTuple(NewSchema("n", "sum"), end, len(window), sum))
}

// renderOuts formats emitted tuples for byte comparison.
func renderOuts(ts []*Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%d|%d|%.17g\n", t.TS, t.Fields[0], t.Fields[1])
	}
	return b.String()
}

// feedOp pushes tuples through an operator, collecting emissions.
func feedOp(op Operator, in []*Tuple, flush bool) []*Tuple {
	var outs []*Tuple
	emit := func(t *Tuple) { outs = append(outs, t) }
	for _, t := range in {
		op.Process(0, t, emit)
	}
	if flush {
		op.Flush(emit)
	}
	return outs
}

// windowInput builds a timestamped input stream with a straggler.
func windowInput() []*Tuple {
	sch := NewSchema("v")
	var in []*Tuple
	ts := []Time{0, 400, 900, 1000, 1700, 2100, 2050, 2600, 3499, 3500, 4200, 5100, 5050, 6900}
	for i, at := range ts {
		in = append(in, NewTuple(sch, at, float64(i)*1.25+0.3))
	}
	return in
}

// TestWindowOpSnapshotEquivalence is the operator-level recovery property:
// snapshot after a prefix, restore into a fresh operator, feed the suffix —
// the concatenated emissions must be byte-identical to an uninterrupted
// run, for every window shape and every split point.
func TestWindowOpSnapshotEquivalence(t *testing.T) {
	specs := map[string]WindowSpec{
		"count":    {Count: 4},
		"tumbling": {Duration: 2000},
		"sliding":  {Duration: 2000, Slide: 1000},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			in := windowInput()
			ref := renderOuts(feedOp(NewWindow("w", spec, sumWindow), in, true))
			for cut := 0; cut <= len(in); cut++ {
				a := NewWindow("w", spec, sumWindow)
				prefixOuts := feedOp(a, in[:cut], false)
				blob, err := a.(Snapshotter).Snapshot()
				if err != nil {
					t.Fatalf("cut %d: snapshot: %v", cut, err)
				}
				b := NewWindow("w", spec, sumWindow)
				if err := b.(Snapshotter).Restore(blob); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				got := renderOuts(prefixOuts) + renderOuts(feedOp(b, in[cut:], true))
				if got != ref {
					t.Fatalf("cut %d diverges:\nref:\n%s\ngot:\n%s", cut, ref, got)
				}
			}
		})
	}
}

// deltaSumConsumer is a DeltaConsumerState test double mirroring the shape
// of core's incremental accumulators: live contributions kept in insertion
// order, emission refolding over them (a running add/subtract total would
// depend on eviction history and could never restore bit-exactly), restore
// by replaying the announced residents.
type deltaSumConsumer struct {
	live []struct {
		id uint64
		v  float64
	}
}

func (c *deltaSumConsumer) add(t *Tuple) {
	c.live = append(c.live, struct {
		id uint64
		v  float64
	}{t.ID, t.Float("v")})
}

func (c *deltaSumConsumer) onSlide(added, evicted []*Tuple, end Time, emit Emit) {
	for _, t := range added {
		c.add(t)
	}
	for _, t := range evicted {
		for i, e := range c.live {
			if e.id == t.ID {
				c.live = append(c.live[:i], c.live[i+1:]...)
				break
			}
		}
	}
	var sum float64
	for _, e := range c.live {
		sum += e.v
	}
	emit(NewTuple(NewSchema("n", "sum"), end, len(c.live), sum))
}

func (c *deltaSumConsumer) SnapshotState() ([]byte, error) { return []byte{1}, nil }

func (c *deltaSumConsumer) RestoreState(data []byte, announced []*Tuple) error {
	if len(data) != 1 || data[0] != 1 {
		return fmt.Errorf("bad consumer blob %v", data)
	}
	c.live = c.live[:0]
	for _, t := range announced {
		c.add(t)
	}
	return nil
}

// TestDeltaWindowSnapshotEquivalence: the delta-window ring plus the
// consumer's replay restore reproduce an uninterrupted incremental run at
// every split point — including splits that land a straggler in the
// restored half.
func TestDeltaWindowSnapshotEquivalence(t *testing.T) {
	spec := WindowSpec{Duration: 2000, Slide: 1000}
	in := windowInput()
	mkOp := func() Operator {
		c := &deltaSumConsumer{}
		return NewDeltaWindowState("dw", spec, c.onSlide, c)
	}
	ref := renderOuts(feedOp(mkOp(), in, true))
	for cut := 0; cut <= len(in); cut++ {
		a := mkOp()
		prefixOuts := feedOp(a, in[:cut], false)
		blob, err := a.(Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		b := mkOp()
		if err := b.(Snapshotter).Restore(blob); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		got := renderOuts(prefixOuts) + renderOuts(feedOp(b, in[cut:], true))
		if got != ref {
			t.Fatalf("cut %d diverges:\nref:\n%s\ngot:\n%s", cut, ref, got)
		}
	}
}

// TestWindowRestoreRejectsSpecMismatch: a snapshot taken under one window
// spec must refuse to restore into an operator compiled with another —
// silent acceptance would replay tuples into the wrong windows.
func TestWindowRestoreRejectsSpecMismatch(t *testing.T) {
	a := NewWindow("w", WindowSpec{Duration: 2000}, sumWindow)
	feedOp(a, windowInput()[:5], false)
	blob, err := a.(Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := NewWindow("w", WindowSpec{Duration: 3000}, sumWindow)
	if err := b.(Snapshotter).Restore(blob); err == nil {
		t.Fatal("restore across window specs did not fail")
	}
	c := NewDeltaWindow("dw", WindowSpec{Duration: 2000, Slide: 500}, func(a, e []*Tuple, end Time, emit Emit) {})
	if err := c.(Snapshotter).Restore(blob); err == nil {
		t.Fatal("restore of a rescan-window blob into a delta window did not fail")
	}
}
