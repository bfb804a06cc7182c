package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/snap"
	"repro/internal/stream"
)

// partCarrier is an ingest-shaped carrier: x, y, z and weight, keyed by tag.
func partCarrier(id uint64, weight dist.Dist) *UTuple {
	u := NewUTuple(stream.Time(1000+id), []string{"x", "y", "z", "weight"}, []dist.Dist{
		dist.NewNormal(40+float64(id), 1.5),
		dist.NewNormal(7, 2),
		dist.PointMass{V: 2.25},
		weight,
	})
	u.ID = id
	u.Lin = lineage.NewSet(id)
	u.Exist = 0.875
	u.SetKey("tag", int64(id)*3)
	return u
}

// partFixtures are group partials covering every branch of the part codec:
// moment-gated sums, gates shipped through dist.Encode, quantile and top-k
// aux points, a multi-id and an empty lineage, a carrier without the top-k
// label key (a second shape), and aggregate-less partials that ship their
// carriers whole, with and without moment-gated contributions.
func partFixtures() map[string]*groupPartial {
	weights := []dist.Dist{
		dist.PointMass{V: 140},
		dist.NewNormal(150, 30),
		dist.NewMixture([]float64{0.4, 0.6}, []dist.Dist{dist.NewNormal(100, 5), dist.NewNormal(130, 8)}),
	}
	build := func(agg UAgg, project bool) *groupPartial {
		gp := &groupPartial{end: 5000, group: "A3_9"}
		if project {
			gp.agg = agg
		}
		for i, ps := range []float64{0.3, 1, 1e-12, 0.75} {
			u := partCarrier(uint64(10+i), weights[i%len(weights)])
			switch i {
			case 1:
				u.Lin = lineage.NewSet(u.ID, u.ID+40, 3)
			case 2:
				u.Lin = lineage.Set{}
				u.Keys = KeySet{}
			}
			pc := &PartialContrib{Seq: uint64(3 * i), U: u, P: ps}
			if agg != nil {
				pc.D, pc.Aux = agg.Prepare(u, ps)
			}
			gp.contribs = append(gp.contribs, pc)
		}
		return gp
	}
	return map[string]*groupPartial{
		"sum-cfapprox": build(NewSumAgg("weight", CFApprox, AggOptions{}), true),
		"sum-cfinvert": build(NewSumAgg("weight", CFInvert, AggOptions{}), true),
		"quantile":     build(NewQuantileAgg("x", 0.5, QuantileOptions{}), true),
		"topk":         build(NewTopKDominatingAgg([]string{"y", "x"}, 2, TopKOptions{Label: "tag"}), true),
		"whole":        build(nil, false),
		"whole-moment": build(NewSumAgg("weight", CLT, AggOptions{}), false),
	}
}

func partTuple(gp *groupPartial) *stream.Tuple {
	return stream.NewTuple(partialSchema, gp.end, gp)
}

func encodePart(t *testing.T, tp *stream.Tuple) []byte {
	t.Helper()
	var c PartCodec
	data, err := c.Encode(tp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return append([]byte(nil), data...)
}

// TestPartCodecRoundTrip: a decoded partial carries, for every contribution,
// the same Seq, P, aux points and prepared distribution (bit-equal on every
// method the merge or a later stage could call), and a carrier projected to
// the aggregate's inputs with the original TS, ID, existence, lineage and
// values. Re-encoding the decoded partial reproduces the original bytes.
func TestPartCodecRoundTrip(t *testing.T) {
	wantNames := map[string]string{
		"sum-cfapprox": "weight",
		"sum-cfinvert": "weight",
		"quantile":     "x",
		"topk":         "y,x",
		"whole":        "x,y,z,weight",
		"whole-moment": "x,y,z,weight",
	}
	for name, gp := range partFixtures() {
		t.Run(name, func(t *testing.T) {
			data := encodePart(t, partTuple(gp))
			var dec PartCodec
			tp, err := dec.Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if tp.Schema() != partialSchema || tp.TS != gp.end {
				t.Fatalf("decoded tuple schema %v ts %d", tp.Schema(), tp.TS)
			}
			got := tp.Fields[0].(*groupPartial)
			if got.end != gp.end || got.group != gp.group || len(got.contribs) != len(gp.contribs) {
				t.Fatalf("header: got %d %q %d contribs", got.end, got.group, len(got.contribs))
			}
			for i, w := range gp.contribs {
				g := got.contribs[i]
				if g.Seq != w.Seq || !eqBits(g.P, w.P) || len(g.Aux) != len(w.Aux) {
					t.Fatalf("contrib %d: seq %d p %v aux %d, want %d %v %d", i, g.Seq, g.P, len(g.Aux), w.Seq, w.P, len(w.Aux))
				}
				for j := range w.Aux {
					if !eqBits(g.Aux[j], w.Aux[j]) {
						t.Fatalf("contrib %d aux %d: %v, want %v", i, j, g.Aux[j], w.Aux[j])
					}
				}
				checkSameDist(t, g.D, w.D)
				if _, moment := w.D.(*momentDist); moment {
					// The gate travels as moments over the carrier's own
					// weight, not as a serialised mixture.
					if m, ok := g.D.(*momentDist); !ok || m.p != g.P || !sameVal(m.v, g.U.Val("weight")) {
						t.Errorf("contrib %d: a momentDist decoded as %#v", i, g.D)
					}
				}
				gu, wu := g.U, w.U
				if gu.TS != wu.TS || gu.ID != wu.ID || !eqBits(gu.Exist, wu.Exist) {
					t.Fatalf("carrier %d header differs", i)
				}
				if got := strings.Join(gu.Names(), ","); got != wantNames[name] {
					t.Errorf("carrier %d ships %s, want %s", i, got, wantNames[name])
				}
				if cap(gu.names) != len(gu.names) || cap(gu.vals) != len(gu.vals) || gu.dists != nil && cap(gu.dists) != len(gu.dists) {
					t.Errorf("carrier %d slices have spare capacity", i)
				}
				for _, n := range gu.Names() {
					checkSameDist(t, gu.Attr(n), wu.Attr(n))
				}
				if a, b := gu.Lin.IDs(), wu.Lin.IDs(); !slices.Equal(a, b) {
					t.Errorf("carrier %d lineage %v, want %v", i, a, b)
				}
				if name != "topk" && !strings.HasPrefix(name, "whole") || wu.Keys.Len() == 0 {
					if gu.Keys.Len() != 0 {
						t.Errorf("carrier %d ships keys %v", i, gu.Keys)
					}
				} else if !gu.HasKey("tag") || gu.Key("tag") != wu.Key("tag") {
					t.Errorf("carrier %d keys %v, want %v", i, gu.Keys, wu.Keys)
				}
			}
			if again := encodePart(t, tp); !bytes.Equal(again, data) {
				t.Errorf("re-encoding the decoded partial changed its bytes:\n% x\n% x", again, data)
			}
		})
	}
}

func eqBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSameDist requires two distributions to answer every method bit for
// bit (sampling aside).
func checkSameDist(t *testing.T, got, want dist.Dist) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("distribution %v, want %v", got, want)
	}
	if want == nil {
		return
	}
	glo, ghi := got.Support()
	wlo, whi := want.Support()
	ok := eqBits(got.Mean(), want.Mean()) && eqBits(got.Variance(), want.Variance()) &&
		eqBits(got.Std(), want.Std()) && eqBits(glo, wlo) && eqBits(ghi, whi)
	for _, x := range []float64{-1, 0, 7, 41.5, 120, 150} {
		ok = ok && eqBits(got.PDF(x), want.PDF(x)) && eqBits(got.CDF(x), want.CDF(x))
		ok = ok && got.CF(x/100) == want.CF(x/100)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		ok = ok && eqBits(got.Quantile(q), want.Quantile(q))
	}
	if !ok {
		t.Errorf("distribution %T decoded as %T with different answers", want, got)
	}
}

// TestPartCodecClose: a forwarded close round-trips its end, close sequence
// and tuple Seq.
func TestPartCodecClose(t *testing.T) {
	ct := stream.NewWindowClose(15000, 42)
	ct.Seq = 9
	var dec PartCodec
	got, err := dec.Decode(encodePart(t, ct))
	if err != nil {
		t.Fatal(err)
	}
	end, ok := stream.WindowCloseOf(got)
	seq, _ := stream.CloseSeq(got)
	if !ok || end != 15000 || seq != 42 || got.Seq != 9 {
		t.Fatalf("close decoded as end %d (%v) seq %d tuple seq %d", end, ok, seq, got.Seq)
	}
	if _, err := new(PartCodec).Encode(Wrap(partCarrier(1, dist.PointMass{V: 1}))); err == nil {
		t.Fatal("encoded a tuple that is neither a partial nor a close")
	}
}

// TestPartCodecInternsTables: frames with equal shape tables decode to
// carriers sharing one names slice; a frame decodes alone, whatever the
// codec decoded before.
func TestPartCodecInternsTables(t *testing.T) {
	fx := partFixtures()
	a := encodePart(t, partTuple(fx["topk"]))
	b := encodePart(t, partTuple(fx["whole"]))
	var dec PartCodec
	first, err := dec.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(b); err != nil {
		t.Fatal(err)
	}
	second, err := dec.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	n1 := first.Fields[0].(*groupPartial).contribs[0].U.names
	n2 := second.Fields[0].(*groupPartial).contribs[0].U.names
	if &n1[0] != &n2[0] {
		t.Error("equal shape tables decoded to separate names slices")
	}
	fresh, err := new(PartCodec).Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePart(t, fresh), encodePart(t, second)) {
		t.Error("a frame decoded differently on a fresh codec")
	}
}

// rawPart hand-builds a one-contribution partial frame over the shape
// table ["v"] / ["k"], with fields a test can corrupt.
type rawPart struct {
	shapes           [][2][]string
	n                uint64    // contributions promised (one is written)
	totals           [4]uint64 // attrs, lineage ids, keys, aux
	p                float64
	flags            uint8
	momentPos, shape uint64
	lin              []uint64
}

func validRawPart() rawPart {
	return rawPart{
		shapes: [][2][]string{{{"v"}, {"k"}}},
		n:      1,
		totals: [4]uint64{1, 2, 1, 0},
		p:      0.5, flags: partDMoment, lin: []uint64{3, 8},
	}
}

func (rp rawPart) bytes() []byte {
	var tab snap.Writer
	tab.Uvarint(uint64(len(rp.shapes)))
	for _, s := range rp.shapes {
		for _, names := range s {
			tab.Uvarint(uint64(len(names)))
			for _, n := range names {
				tab.String(n)
			}
		}
	}
	var w snap.Writer
	w.U8(partGroup)
	w.Uvarint(0)
	w.Varint(5000)
	w.String("g")
	w.Blob(tab.Bytes())
	w.Uvarint(rp.n)
	for _, n := range rp.totals {
		w.Uvarint(n)
	}
	w.Uvarint(4) // Seq
	w.F64(rp.p)
	w.U8(rp.flags)
	w.Uvarint(0) // aux
	if rp.flags&partDMoment != 0 {
		w.Uvarint(rp.momentPos)
		w.F64(1)
		w.F64(2)
	}
	w.Uvarint(rp.shape)
	w.Varint(1000)
	w.Uvarint(8)
	w.F64(1)
	dist.Encode(&w, dist.PointMass{V: 3})
	w.Uvarint(uint64(len(rp.lin)))
	for _, id := range rp.lin {
		w.Uvarint(id)
	}
	w.Varint(-6)
	return w.Bytes()
}

// TestDecodePartRejectsCorrupt: every length, index and schema reference is
// bounds-checked — an out-of-range or unsorted value, and every truncation
// of a valid frame, is an error, never a panic.
func TestDecodePartRejectsCorrupt(t *testing.T) {
	if _, err := new(PartCodec).Decode(validRawPart().bytes()); err != nil {
		t.Fatalf("the valid hand-built frame does not decode: %v", err)
	}
	cases := map[string]func(*rawPart){
		"unsorted lineage":       func(rp *rawPart) { rp.lin = []uint64{8, 3} },
		"repeated lineage id":    func(rp *rawPart) { rp.lin = []uint64{8, 8} },
		"shape out of range":     func(rp *rawPart) { rp.shape = 1 },
		"moment attr past shape": func(rp *rawPart) { rp.momentPos = 1 },
		"unknown flag":           func(rp *rawPart) { rp.flags |= 1 << 5 },
		"two D forms":            func(rp *rawPart) { rp.flags |= partDEncoded },
		"NaN probability":        func(rp *rawPart) { rp.p = math.NaN() },
		"probability above one":  func(rp *rawPart) { rp.p = 1.5 },
		"unsorted key names":     func(rp *rawPart) { rp.shapes[0][1] = []string{"k", "a"}; rp.totals[2] = 2 },
		"attr total short":       func(rp *rawPart) { rp.totals[0] = 0 },
		"attr total long":        func(rp *rawPart) { rp.totals[0] = 2 },
		"lineage total short":    func(rp *rawPart) { rp.totals[1] = 1 },
		"key total long":         func(rp *rawPart) { rp.totals[2] = 3 },
		"aux total long":         func(rp *rawPart) { rp.totals[3] = 1 },
		"more contributions":     func(rp *rawPart) { rp.n = 2 },
		"counts past the frame":  func(rp *rawPart) { rp.n, rp.totals[0] = 40, 40 },
	}
	for name, mut := range cases {
		rp := validRawPart()
		mut(&rp)
		if _, err := new(PartCodec).Decode(rp.bytes()); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var frames [][]byte
	for _, gp := range partFixtures() {
		frames = append(frames, encodePart(t, partTuple(gp)))
	}
	frames = append(frames, encodePart(t, stream.NewWindowClose(5000, 3)))
	for _, data := range frames {
		for n := 0; n < len(data); n++ {
			if _, err := new(PartCodec).Decode(data[:n]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte frame decoded", n, len(data))
			}
		}
		if _, err := new(PartCodec).Decode(append(data, 0)); err == nil {
			t.Fatal("a frame with a trailing byte decoded")
		}
	}
}

// FuzzDecodePart: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to bytes that decode and re-encode to themselves.
func FuzzDecodePart(f *testing.F) {
	for _, gp := range partFixtures() {
		var c PartCodec
		data, err := c.Encode(partTuple(gp))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), data...))
	}
	f.Add(validRawPart().bytes())
	f.Add([]byte{partClose, 0x90, 0x4e, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec PartCodec
		tp, err := dec.Decode(data)
		if err != nil {
			return
		}
		var enc PartCodec
		once, err := enc.Encode(tp)
		if err != nil {
			t.Fatalf("a decoded part does not re-encode: %v", err)
		}
		once = append([]byte(nil), once...)
		again, err := dec.Decode(once)
		if err != nil {
			t.Fatalf("a re-encoded part does not decode: %v", err)
		}
		twice, err := enc.Encode(again)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("decode → encode is not a fixpoint:\n% x\n% x", once, twice)
		}
	})
}
