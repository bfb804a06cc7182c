package core

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/snap"
	"repro/internal/stream"
)

// utupleRoundTrip encodes and decodes one uncertain tuple.
func utupleRoundTrip(t *testing.T, u *UTuple) *UTuple {
	t.Helper()
	w := &snap.Writer{}
	if err := encodeUTuple(w, u); err != nil {
		t.Fatalf("encodeUTuple: %v", err)
	}
	r := snap.NewReader(w.Bytes())
	got, err := decodeUTuple(r)
	if err != nil {
		t.Fatalf("decodeUTuple: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	return got
}

// TestUTupleCodecRoundTrip pins the full uncertain-tuple encoding: names,
// attribute distributions (including the cached-moment shard wrapper that
// goes through the dist extension registry), existence, lineage, and
// integer keys.
func TestUTupleCodecRoundTrip(t *testing.T) {
	u := NewUTuple(1200, []string{"x", "y", "weight"}, []dist.Dist{
		dist.NewNormal(41.2, 1.5),
		momentDist{v: dist.NewNormal(7, 1.5), p: 1, mean: 7.0000000000000009, variance: 2.25},
		dist.PointMass{V: 140},
	})
	u.Exist = 0.8125
	u.SetKey("tag", 17)
	u.SetKey("reader", -3)
	u.Lin = lineage.UnionAll(u.Lin, lineage.NewSet(u.ID+7), lineage.NewSet(u.ID+7))

	got := utupleRoundTrip(t, u)
	if got.TS != u.TS || got.ID != u.ID || got.Exist != u.Exist {
		t.Fatalf("header fields: got {%d %d %g}, want {%d %d %g}",
			got.TS, got.ID, got.Exist, u.TS, u.ID, u.Exist)
	}
	if len(got.Names()) != 3 {
		t.Fatalf("names = %v", got.Names())
	}
	for _, n := range u.Names() {
		a, b := got.Attr(n), u.Attr(n)
		if a.Mean() != b.Mean() || a.Variance() != b.Variance() {
			t.Errorf("attr %q: %.17g/%.17g != %.17g/%.17g", n, a.Mean(), a.Variance(), b.Mean(), b.Variance())
		}
	}
	if got.Key("tag") != 17 || got.Key("reader") != -3 {
		t.Errorf("keys = %v", got)
	}
	gi, wi := got.Lin.IDs(), u.Lin.IDs()
	if len(gi) != len(wi) {
		t.Fatalf("lineage %v, want %v", gi, wi)
	}
	for i := range gi {
		if gi[i] != wi[i] {
			t.Fatalf("lineage %v, want %v", gi, wi)
		}
	}
}

// TestUTupleCodecKeylessAndLineageless: the sparse shapes (no keys map, unit
// existence, singleton lineage) round-trip too.
func TestUTupleCodecMinimal(t *testing.T) {
	u := NewUTuple(0, []string{"v"}, []dist.Dist{dist.PointMass{V: 0}})
	got := utupleRoundTrip(t, u)
	if got.Keys.Len() != 0 {
		t.Errorf("decoded empty keys as %v", got)
	}
	if got.Exist != 1 {
		t.Errorf("Exist = %g", got.Exist)
	}
	ids := got.Lin.IDs()
	if len(ids) != 1 || ids[0] != u.ID {
		t.Errorf("lineage = %v, want [%d]", ids, u.ID)
	}
}

// TestUTupleCodecKeyOrder: keys are written in ascending name order whatever
// order they were set in, decode back in that order, and a blob whose key
// names are unsorted or repeated decodes to an error — never a panic, never
// a tuple with an ambiguous key.
func TestUTupleCodecKeyOrder(t *testing.T) {
	u := NewUTuple(5, []string{"v"}, []dist.Dist{dist.PointMass{V: 1}})
	u.SetKey("zone", 3)
	u.SetKey("tag", 17)
	u.SetKey("reader", -2)
	got := utupleRoundTrip(t, u)
	var names []string
	var vals []int64
	for k, v := range got.Keys.Each() {
		names = append(names, k)
		vals = append(vals, v)
	}
	if fmt.Sprint(names, vals) != "[reader tag zone] [-2 17 3]" {
		t.Fatalf("decoded keys %v %v, want sorted [reader tag zone] [-2 17 3]", names, vals)
	}

	// Hand-built blobs: the codec's layout with the key table replaced.
	blob := func(keys ...string) []byte {
		w := &snap.Writer{}
		w.U8(utupleSnapV1)
		w.Varint(5)
		w.Uvarint(1)
		w.Uvarint(1)
		w.String("v")
		if err := dist.Encode(w, dist.PointMass{V: 1}); err != nil {
			t.Fatal(err)
		}
		w.F64(1)
		w.Uvarint(1)
		w.Uvarint(1)
		w.Uvarint(uint64(len(keys)))
		for i, k := range keys {
			w.String(k)
			w.Varint(int64(i))
		}
		return w.Bytes()
	}
	if _, err := decodeUTuple(snap.NewReader(blob("a", "b"))); err != nil {
		t.Fatalf("sorted keys: %v", err)
	}
	for _, keys := range [][]string{{"b", "a"}, {"tag", "tag"}, {"a", "c", "b"}} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("keys %v: decode panicked: %v", keys, p)
				}
			}()
			if _, err := decodeUTuple(snap.NewReader(blob(keys...))); err == nil {
				t.Errorf("keys %v: decode accepted unsorted/duplicate key names", keys)
			}
		}()
	}
}

// TestGroupPartialCodecRoundTrip covers the shard partial that crosses the
// merge box's snapshot: ordinal sequence, gated distribution, and carrier
// tuple all intact.
func TestGroupPartialCodecRoundTrip(t *testing.T) {
	u := NewUTuple(900, []string{"weight"}, []dist.Dist{dist.NewNormal(150, 4)})
	u.SetKey("tag", 5)
	gp := &groupPartial{
		end:   5000,
		group: "area(3,4)",
		contribs: []*PartialContrib{
			{Seq: 11, P: 0.75, D: dist.NewNormal(150, 4), Aux: []float64{1.5, -2}, U: u},
			{Seq: 12, P: 1, D: dist.PointMass{V: 0}, U: NewUTuple(901, []string{"weight"}, []dist.Dist{dist.PointMass{V: 1}})},
		},
	}
	w := &snap.Writer{}
	if err := encodeGroupPartial(w, gp); err != nil {
		t.Fatal(err)
	}
	r := snap.NewReader(w.Bytes())
	got, err := decodeGroupPartial(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got.end != gp.end || got.group != gp.group || len(got.contribs) != 2 {
		t.Fatalf("decoded partial %+v", got)
	}
	if got.contribs[0].Seq != 11 || got.contribs[1].Seq != 12 {
		t.Errorf("contrib seqs %d, %d", got.contribs[0].Seq, got.contribs[1].Seq)
	}
	if got.contribs[0].D.Mean() != 150 || got.contribs[0].U.Key("tag") != 5 {
		t.Error("contrib payload did not round-trip")
	}
	if got.contribs[0].P != 0.75 || got.contribs[1].P != 1 {
		t.Errorf("contrib gates %g, %g", got.contribs[0].P, got.contribs[1].P)
	}
	if a := got.contribs[0].Aux; len(a) != 2 || a[0] != 1.5 || a[1] != -2 {
		t.Errorf("contrib aux %v", got.contribs[0].Aux)
	}
	if got.contribs[1].Aux != nil {
		t.Errorf("empty aux decoded as %v", got.contribs[1].Aux)
	}
}

// TestEnsureTupleIDFloor: restored lineage must never collide with IDs
// allocated after recovery.
func TestEnsureTupleIDFloor(t *testing.T) {
	mark := stream.TupleIDMark()
	stream.EnsureTupleIDFloor(mark + 1000)
	u := NewUTuple(0, []string{"v"}, []dist.Dist{dist.PointMass{V: 1}})
	if u.ID <= mark+1000 {
		t.Fatalf("post-floor ID %d not above floor %d", u.ID, mark+1000)
	}
	// Lowering is a no-op.
	stream.EnsureTupleIDFloor(1)
	if stream.TupleIDMark() < mark+1000 {
		t.Fatal("EnsureTupleIDFloor lowered the allocator")
	}
}
