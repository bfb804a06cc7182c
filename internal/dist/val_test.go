package dist

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/snap"
)

// valCases are distributions of every form a Val takes: Normals and point
// masses held by value (at −0, the smallest subnormal, the extremes), the
// Normals that stay boxed (σ of zero, −0 or NaN), and other families.
func valCases() []Dist {
	negZero := math.Copysign(0, -1)
	return []Dist{
		Normal{Mu: 41.2, Sigma: 1.5},
		Normal{Mu: negZero, Sigma: 1},
		Normal{Mu: 3, Sigma: 5e-324},
		Normal{Mu: -1e308, Sigma: 1e308},
		Normal{Mu: 2, Sigma: math.Inf(1)},
		Normal{Mu: math.NaN(), Sigma: 2},
		Normal{Mu: 7, Sigma: 0},
		Normal{Mu: 7, Sigma: negZero},
		Normal{Mu: 7, Sigma: math.NaN()},
		PointMass{V: 140},
		PointMass{V: negZero},
		PointMass{V: 5e-324},
		PointMass{V: math.Inf(-1)},
		NewUniform(3, 38),
		NewExponential(0.25),
		NewMixture([]float64{0.3, 0.7}, []Dist{NewNormal(12, 2), PointMass{V: 0}}),
		NewHistogram(3, 47, []float64{0.1, 0, 0.4, 0.2, 0.3}),
	}
}

func encoded(t testing.TB, d Dist) []byte {
	w := &snap.Writer{}
	if err := Encode(w, d); err != nil {
		t.Fatalf("Encode(%v): %v", d, err)
	}
	return w.Bytes()
}

// TestValMatchesDist: a Val answers every method with its distribution's
// bits, takes the value form exactly for Normals with σ > 0 and point
// masses, boxes back to an equal distribution, and encodes and decodes to
// Encode's bytes.
func TestValMatchesDist(t *testing.T) {
	for _, d := range valCases() {
		v := ValOf(d)
		n, isNormal := d.(Normal)
		_, isPoint := d.(PointMass)
		if want := isPoint || isNormal && n.Sigma > 0; (v.D == nil) != want {
			t.Errorf("%v: value form %v, want %v", d, v.D == nil, want)
		}
		if back := v.Dist(); !bytes.Equal(encoded(t, back), encoded(t, d)) {
			t.Errorf("%v: Dist() = %v", d, back)
		}
		same := func(what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v %s: %v, want %v", d, what, got, want)
			}
		}
		same("mean", v.Mean(), d.Mean())
		same("variance", v.Variance(), d.Variance())
		same("std", v.Std(), d.Std())
		lo, hi := v.Support()
		dlo, dhi := d.Support()
		same("support lo", lo, dlo)
		same("support hi", hi, dhi)
		elo, ehi := EffectiveRange(v, 1e-6)
		dlo, dhi = EffectiveRange(d, 1e-6)
		same("range lo", elo, dlo)
		same("range hi", ehi, dhi)
		for _, x := range []float64{-1e308, -10, -1, math.Copysign(0, -1), 0, 0.5, 3, 7, 40, 140, 1e6} {
			same("pdf", v.PDF(x), d.PDF(x))
			same("cdf", v.CDF(x), d.CDF(x))
		}
		for _, p := range []float64{0, 1e-9, 0.0625, 0.5, 0.9375, 1} {
			same("quantile", v.Quantile(p), d.Quantile(p))
		}
		w := &snap.Writer{}
		if err := EncodeVal(w, v); err != nil {
			t.Fatalf("EncodeVal(%v): %v", d, err)
		}
		if want := encoded(t, d); !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%v: EncodeVal % x, Encode % x", d, w.Bytes(), want)
		}
		r := snap.NewReader(w.Bytes())
		got := DecodeVal(r)
		if err := r.Close(); err != nil {
			t.Fatalf("DecodeVal(%v): %v", d, err)
		}
		if (got.D == nil) != (v.D == nil) || got.D == nil && (math.Float64bits(got.Mu) != math.Float64bits(v.Mu) || got.Sigma != v.Sigma) {
			t.Errorf("%v: DecodeVal %+v, want %+v", d, got, v)
		}
	}
}

// TestValAllocs: reading and encoding the value form boxes nothing.
func TestValAllocs(t *testing.T) {
	v := ValOf(NewNormal(41.2, 1.5))
	w := &snap.Writer{}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		sink += v.Mean() + v.Std() + v.CDF(40) + v.PDF(40) + v.Quantile(0.3)
		lo, hi := EffectiveRange(v, 1e-6)
		sink += lo + hi
		_ = EncodeVal(w, v)
		_ = DecodeVal(snap.NewReader(w.Bytes()))
	})
	if allocs > 1 { // the reader
		t.Errorf("%.1f allocs per value-form read, encode and decode", allocs)
	}
	_ = sink
}

// FuzzDistCodec: decoding arbitrary bytes never panics; whatever decodes
// re-encodes to bytes that decode again to the same bytes (a fixpoint);
// and DecodeVal agrees with Decode on every input — same error, same
// distribution, the value form exactly where ValOf takes it, and EncodeVal
// writes Encode's bytes.
//
//	go test ./internal/dist -run '^$' -fuzz FuzzDistCodec -fuzztime 15s
func FuzzDistCodec(f *testing.F) {
	for _, d := range valCases() {
		f.Add(encoded(f, d))
	}
	f.Add(encoded(f, NewTruncated(NewNormal(0, 1), -1, 2)))
	f.Add(encoded(f, NewEmpirical([]float64{1, 2, 2, 5}, []float64{1, 1, 2, 1})))
	f.Add([]byte{distCodecV1, tagNormal})
	f.Add([]byte{distCodecV1, tagMixture, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := snap.NewReader(data)
		d := Decode(r)
		err := r.Close()
		rv := snap.NewReader(data)
		v := DecodeVal(rv)
		if errV := rv.Close(); (err == nil) != (errV == nil) {
			t.Fatalf("Decode error %v, DecodeVal error %v", err, errV)
		}
		if err != nil {
			return
		}
		e1 := encoded(t, d)
		w := &snap.Writer{}
		if err := EncodeVal(w, v); err != nil {
			t.Fatalf("EncodeVal: %v", err)
		}
		if !bytes.Equal(w.Bytes(), e1) {
			t.Fatalf("EncodeVal(DecodeVal) % x, Encode(Decode) % x", w.Bytes(), e1)
		}
		if want := ValOf(d); (v.D == nil) != (want.D == nil) ||
			v.D == nil && (math.Float64bits(v.Mu) != math.Float64bits(want.Mu) || math.Float64bits(v.Sigma) != math.Float64bits(want.Sigma)) {
			t.Fatalf("DecodeVal %+v, ValOf(Decode) %+v", v, want)
		}
		r2 := snap.NewReader(e1)
		d2 := Decode(r2)
		if err := r2.Close(); err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v\n% x", err, e1)
		}
		if e2 := encoded(t, d2); !bytes.Equal(e2, e1) {
			t.Fatalf("decode → encode is not a fixpoint:\n% x\n% x", e1, e2)
		}
	})
}
