package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/snap"
)

// momentGateInputs are the attribute shapes the moment strategies gate:
// the ingest's Normals, certain weights, and the flatter and multi-modal
// families a T operator can emit.
func momentGateInputs() []dist.Dist {
	return []dist.Dist{
		dist.NewNormal(150, 30),
		dist.PointMass{V: 42.5},
		dist.NewUniform(10, 20),
		dist.NewMixture([]float64{0.4, 0.6}, []dist.Dist{dist.NewNormal(100, 5), dist.NewNormal(130, 8)}),
	}
}

// momentGatePs spans the gate: a vanishing tuple, a typical membership, the
// largest float64 below 1 (whose mixture weight 1−p is 2⁻⁵³), and certainty
// (no gate at all).
var momentGatePs = []float64{1e-12, 0.3, 1 - 0x1p-53, 1}

// momentPartial prepares every input × gate probability under strat and
// returns them as one group partial with fixed ids, so its encoding depends
// only on the prepared values.
func momentPartial(strat Strategy) *groupPartial {
	agg := NewSumAgg("weight", strat, AggOptions{})
	gp := &groupPartial{end: 5000, group: "A3_9"}
	seq := uint64(0)
	for _, v := range momentGateInputs() {
		for _, p := range momentGatePs {
			seq++
			u := NewUTuple(1000, []string{"weight"}, []dist.Dist{v})
			u.ID = 100 + seq
			u.Lin = lineage.NewSet(u.ID)
			d, aux := agg.Prepare(u, p)
			gp.contribs = append(gp.contribs, &PartialContrib{Seq: seq, U: u, P: p, D: d, Aux: aux})
		}
	}
	return gp
}

func encodePartialBytes(t *testing.T, gp *groupPartial) []byte {
	t.Helper()
	w := &snap.Writer{}
	if err := encodeGroupPartial(w, gp); err != nil {
		t.Fatalf("encodeGroupPartial: %v", err)
	}
	return w.Bytes()
}

// TestMomentPartialBytesGolden pins the wire and checkpoint bytes of
// CFApprox partial contributions — the cached moments followed by the gate
// mixture — against a file recorded on the eager gate, and requires the
// decoded partial to re-encode to the same bytes.
func TestMomentPartialBytesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "moment_partial_pr22.bin")
	got := encodePartialBytes(t, momentPartial(CFApprox))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("moment partial encoding diverges from golden (%d vs %d bytes)", len(got), len(want))
	}
	r := snap.NewReader(want)
	gp, err := decodeGroupPartial(r)
	if err != nil {
		t.Fatalf("decodeGroupPartial: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	if again := encodePartialBytes(t, gp); !bytes.Equal(again, want) {
		t.Fatal("decoded partial does not re-encode to the golden bytes")
	}
}

// TestMomentPrepareMatchesGate: for the moment strategies the prepared
// value answers every distribution query bit for bit as the Bernoulli gate
// mixture would — the moments the fold reads and the CDF, CF and quantiles
// anything else might.
func TestMomentPrepareMatchesGate(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, strat := range []Strategy{CFApprox, CLT} {
		gp := momentPartial(strat)
		for _, c := range gp.contribs {
			ref := BernoulliGate(c.U.Attr("weight"), c.P)
			d := c.D
			if !same(d.Mean(), ref.Mean()) || !same(d.Variance(), ref.Variance()) || !same(d.Std(), ref.Std()) {
				t.Errorf("%v p=%g %v: moments (%.17g, %.17g), gate (%.17g, %.17g)",
					strat, c.P, c.U.Attr("weight"), d.Mean(), d.Variance(), ref.Mean(), ref.Variance())
			}
			for _, x := range []float64{-1, 0, 12.5, 42.5, 99, 150, 1e6} {
				if !same(d.CDF(x), ref.CDF(x)) || !same(d.PDF(x), ref.PDF(x)) {
					t.Errorf("%v p=%g: CDF/PDF(%g) diverge from the gate", strat, c.P, x)
				}
			}
			for _, tt := range []float64{0, 0.01, 0.7, 3} {
				a, b := d.CF(tt), ref.CF(tt)
				if !same(real(a), real(b)) || !same(imag(a), imag(b)) {
					t.Errorf("%v p=%g: CF(%g) = %v, gate %v", strat, c.P, tt, a, b)
				}
			}
			for _, q := range []float64{0, 0.05, 0.5, 0.7, 0.95, 1} {
				if !same(d.Quantile(q), ref.Quantile(q)) {
					t.Errorf("%v p=%g: Quantile(%g) = %.17g, gate %.17g", strat, c.P, q, d.Quantile(q), ref.Quantile(q))
				}
			}
			lo, hi := d.Support()
			rlo, rhi := ref.Support()
			if !same(lo, rlo) || !same(hi, rhi) {
				t.Errorf("%v p=%g: support [%g, %g], gate [%g, %g]", strat, c.P, lo, hi, rlo, rhi)
			}
		}
	}
}
