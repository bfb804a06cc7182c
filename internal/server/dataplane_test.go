package server

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/snap"
)

// The tests in this file pin the cluster data plane's encoders: the
// router's per-slot TupleBatch, the worker's exactly sized tail and part
// frames, and the JSON line's positional form.

// decodedTrace decodes a binary-encoded trace into owned BwTuple copies.
func decodedTrace(t *testing.T, msgs []Msg) []BwTuple {
	t.Helper()
	wr := NewWireReader(bytes.NewReader(encodeBinary(t, msgs)), 0)
	dec := NewBwDecoder()
	var out []BwTuple
	for {
		_, fr, err := wr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if fr.Kind == BwSchemaFrame {
			if _, err := dec.AddSchema(fr.Payload); err != nil {
				t.Fatal(err)
			}
			continue
		}
		bts, err := dec.DecodeTuples(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, bt := range bts {
			bt.Keys = append([]int64(nil), bt.Keys...)
			bt.Attrs = append([]Attr(nil), bt.Attrs...)
			out = append(out, bt)
		}
	}
}

// TestTupleBatchMatchesTuplesFrame: a batch taken from TupleBatch is the
// canonical TUPLES frame of the stamped tuples, allocated at exactly its
// size, and the batch is reusable after Take.
func TestTupleBatchMatchesTuplesFrame(t *testing.T) {
	bts := decodedTrace(t, wireTrace(t, 10, 60))
	if len(bts) < 40 {
		t.Fatalf("trace too short: %d tuples", len(bts))
	}
	var b TupleBatch
	if b.Take() != nil || b.Schema() != nil {
		t.Fatal("empty batch yields a frame")
	}
	for round, chunk := range [][]BwTuple{bts[:17], bts[17:40]} {
		sc := chunk[0].Schema
		want := make([]BwTuple, len(chunk))
		for i := range chunk {
			seq, slot, replica := uint64(1000*round+i), i%3, i%2 == 1
			b.Add(sc, &chunk[i], seq, slot, replica)
			want[i] = chunk[i]
			want[i].Seq, want[i].Shard, want[i].Replica = seq, slot, replica
		}
		if b.Len() != len(chunk) || b.Schema() != sc {
			t.Fatalf("round %d: batch holds %d tuples of %v", round, b.Len(), b.Schema())
		}
		got := b.Take()
		if !bytes.Equal(got, EncodeTuplesFrame(sc, want)) {
			t.Fatalf("round %d: batch frame differs from EncodeTuplesFrame", round)
		}
		if len(got) != cap(got) {
			t.Errorf("round %d: frame len %d cap %d, want exact", round, len(got), cap(got))
		}
		if b.Len() != 0 {
			t.Fatalf("round %d: batch not empty after Take", round)
		}
	}
}

// tailRef is the tail-record encoding through a growing snap.Writer — the
// layout EncodeTailTuple must keep byte for byte.
func tailRef(bt *BwTuple) []byte {
	var w snap.Writer
	w.String(bt.Schema.Source)
	w.Varint(bt.T)
	w.Uvarint(bt.Seq)
	w.Uvarint(uint64(len(bt.Keys)))
	for i, k := range bt.Schema.KeyNames {
		w.String(k)
		w.Varint(bt.Keys[i])
	}
	w.Uvarint(uint64(len(bt.Attrs)))
	for i, a := range bt.Schema.AttrNames {
		w.String(a)
		w.F64(bt.Attrs[i].Mean)
		w.F64(bt.Attrs[i].Std)
	}
	return appendFrame(nil, BwTail, w.Bytes())
}

// TestEncodeTailTupleExact: tail records keep their layout, are allocated
// once at exactly their size, and decode back to the tuple — extreme
// values included, where every varint is at its longest.
func TestEncodeTailTupleExact(t *testing.T) {
	bts := decodedTrace(t, wireTrace(t, 10, 60))
	ext := bts[0]
	ext.T, ext.Seq = math.MaxInt64, math.MaxUint64
	ext.Keys = []int64{math.MinInt64}
	bts = append(bts, ext)
	for i := range bts {
		bt := &bts[i]
		rec := EncodeTailTuple(bt)
		if !bytes.Equal(rec, tailRef(bt)) {
			t.Fatalf("tuple %d: tail record differs from the reference layout", i)
		}
		if len(rec) != cap(rec) {
			t.Fatalf("tuple %d: record len %d cap %d, want exact", i, len(rec), cap(rec))
		}
		kind, payload, err := SplitFrame(rec)
		if err != nil || kind != BwTail {
			t.Fatalf("tuple %d: split %#x %v", i, kind, err)
		}
		tm, err := DecodeTailTuple(payload)
		if err != nil {
			t.Fatalf("tuple %d: decode: %v", i, err)
		}
		if tm.T != bt.T || tm.Seq != bt.Seq || !reflect.DeepEqual(tm.Keys, bt.Keys) || !reflect.DeepEqual(tm.Attrs, bt.Attrs) {
			t.Fatalf("tuple %d: round trip %+v, want %+v", i, tm, bt)
		}
	}
	if n := testing.AllocsPerRun(100, func() { EncodeTailTuple(&bts[0]) }); n != 1 {
		t.Errorf("EncodeTailTuple: %v allocs, want 1", n)
	}
}

// TestEncodeBwPartExact: part frames keep the Uvarint+Blob layout, are
// allocated once at exactly their size, and decode back.
func TestEncodeBwPartExact(t *testing.T) {
	for _, tc := range []struct {
		slot int
		data []byte
	}{{0, nil}, {3, []byte("partial")}, {1 << 20, bytes.Repeat([]byte{7}, 300)}} {
		var w snap.Writer
		w.Uvarint(uint64(tc.slot))
		w.Blob(tc.data)
		want := appendFrame(nil, BwPart, w.Bytes())
		got := EncodeBwPart(tc.slot, tc.data)
		if !bytes.Equal(got, want) || len(got) != cap(got) {
			t.Fatalf("slot %d: frame % x (cap %d), want % x", tc.slot, got, cap(got), want)
		}
		slot, data, err := DecodeBwPart(got[bwHeaderLen:])
		if err != nil || slot != tc.slot || !bytes.Equal(data, tc.data) {
			t.Fatalf("slot %d: decoded %d % x %v", tc.slot, slot, data, err)
		}
	}
}

// TestPositionalMatchesParseTuple: a JSON tuple in positional form lifts to
// the tuple ParseTuple builds, and every malformed line fails with
// ParseTuple's error text; CheckTuple agrees with UTuple's checks.
func TestPositionalMatchesParseTuple(t *testing.T) {
	enc := NewBwEncoder()
	var bt BwTuple
	for i, m := range wireTrace(t, 10, 60) {
		if err := enc.Positional(&m, &bt); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		want, _ := ParseTuple(m)
		got, err := bt.UTuple()
		if err != nil {
			t.Fatalf("msg %d: lift: %v", i, err)
		}
		if got.TS != want.TS || !reflect.DeepEqual(got.Keys, want.Keys) || !reflect.DeepEqual(got.Names(), want.Names()) {
			t.Fatalf("msg %d: positional %v, want %v", i, got, want)
		}
		if bt.Shard != -1 || bt.Replica {
			t.Fatalf("msg %d: positional tuple routed: %+v", i, bt)
		}
	}
	good := map[string]Attr{"x": {Mean: 1, Std: 0.5}}
	bad := []Msg{
		{Kind: KindTuple, T: -5, Attrs: good},
		{Kind: KindTuple, T: -5},
		{Kind: KindTuple, T: 1},
		{Kind: KindTuple, T: 1, Attrs: map[string]Attr{"": {Mean: 1}}},
		{Kind: KindTuple, T: 1, Attrs: map[string]Attr{"x": {Mean: math.NaN()}}},
		{Kind: KindTuple, T: 1, Attrs: map[string]Attr{"a": {Mean: 1}, "b": {Mean: 1, Std: -1}}},
	}
	for i, m := range bad {
		_, want := ParseTuple(m)
		got := enc.Positional(&m, &bt)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("bad msg %d: Positional error %v, ParseTuple error %v", i, got, want)
		}
	}
	// The attr failures leave bt filled: the router's pre-routing check and
	// the worker's lift must reject it identically.
	for _, m := range bad[4:] {
		enc.Positional(&m, &bt)
		_, lift := bt.UTuple()
		if cerr := CheckTuple(&bt); lift == nil || cerr == nil || cerr.Error() != lift.Error() {
			t.Errorf("attrs %v: CheckTuple %v, UTuple %v", m.Attrs, cerr, lift)
		}
	}
}

// TestHandleSnapReleasesTrimmedTail: installing a snapshot trims the slot's
// tail to the suffix past the checkpoint mark, drops the trimmed records
// from the shared backing array, and rebases the other marks.
func TestHandleSnapReleasesTrimmedTail(t *testing.T) {
	tail := [][]byte{{1}, {2}, {3}, {4}, {5}}
	cl := &clusterState{
		snaps: map[int]snapRec{},
		marks: map[uint64]map[int]int{7: {2: 3}, 8: {2: 5}},
		tails: map[int][][]byte{2: tail},
	}
	slot := 2
	if _, err := cl.handleSnap(Msg{Kind: KindSnap, Shard: &slot, Ckpt: 7, Data: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.tails[2], [][]byte{{4}, {5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("trimmed tail = %v, want %v", got, want)
	}
	for i, rec := range tail[:3] {
		if rec != nil {
			t.Errorf("trimmed record %d still referenced by the backing array: %v", i, rec)
		}
	}
	if got := cl.marks[8][2]; got != 2 {
		t.Errorf("later mark = %d, want 2", got)
	}
	if _, ok := cl.snaps[2]; !ok {
		t.Error("snapshot not installed")
	}
}
