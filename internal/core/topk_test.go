package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

func topkUTuple(ts int64, tag int64, x, y dist.Dist) *UTuple {
	u := NewUTuple(stream.Time(ts), []string{"x", "y"}, []dist.Dist{x, y})
	u.SetKey("tag", tag)
	return u
}

func topkFinalize(agg UAgg, us []*UTuple, ps []float64) []AggOut {
	cs := make([]PartialContrib, len(us))
	for i, u := range us {
		d, aux := agg.Prepare(u, ps[i])
		cs[i] = PartialContrib{Seq: uint64(i), U: u, P: ps[i], D: d, Aux: aux}
	}
	return agg.Finalize(cs)
}

// TestTopKCertainDominance: with certain coordinates the ranking must be the
// classical dominating count — (3,3) dominates both others, (2,2) dominates
// one, (1,1) none.
func TestTopKCertainDominance(t *testing.T) {
	agg := NewTopKDominatingAgg([]string{"x", "y"}, 3, TopKOptions{Label: "tag"})
	us := []*UTuple{
		topkUTuple(0, 11, dist.PointMass{V: 1}, dist.PointMass{V: 1}),
		topkUTuple(1, 22, dist.PointMass{V: 3}, dist.PointMass{V: 3}),
		topkUTuple(2, 33, dist.PointMass{V: 2}, dist.PointMass{V: 2}),
	}
	rows := topkFinalize(agg, us, []float64{1, 1, 1})
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	wantTags := []int64{22, 33, 11}
	wantCounts := []float64{2, 1, 0}
	for r, row := range rows {
		if keyOf(row.Keys, "rank") != int64(r+1) {
			t.Errorf("row %d: rank key %d", r, keyOf(row.Keys, "rank"))
		}
		if keyOf(row.Keys, "tag") != wantTags[r] {
			t.Errorf("rank %d: tag %d, want %d", r+1, keyOf(row.Keys, "tag"), wantTags[r])
		}
		if m := row.D.Mean(); math.Abs(m-wantCounts[r]) > 1e-9 {
			t.Errorf("rank %d: domcount mean %.6f, want %g", r+1, m, wantCounts[r])
		}
	}
}

// TestTopKInclusionGating: an object that may not be in the window (p < 1)
// counts proportionally — both as a dominator and as dominated.
func TestTopKInclusionGating(t *testing.T) {
	agg := NewTopKDominatingAgg([]string{"x"}, 1, TopKOptions{Label: "tag"}).(*topkAgg)
	us := []*UTuple{
		topkUTuple(0, 1, dist.PointMass{V: 10}, dist.PointMass{V: 0}),
		topkUTuple(1, 2, dist.PointMass{V: 5}, dist.PointMass{V: 0}),
	}
	rows := topkFinalize(agg, us, []float64{1, 0.5})
	if keyOf(rows[0].Keys, "tag") != 1 {
		t.Fatalf("winner tag %d, want 1", keyOf(rows[0].Keys, "tag"))
	}
	// The winner dominates the half-present loser: E[count] = 0.5.
	if m := rows[0].D.Mean(); math.Abs(m-0.5) > 1e-9 {
		t.Errorf("gated domcount mean %.6f, want 0.5", m)
	}
	// The full distribution is Bernoulli(0.5) over {0, 1}, carried as a
	// unit-bin histogram — which adds 1/12 of within-bin smear.
	if v := rows[0].D.Variance(); math.Abs(v-(0.25+1.0/12)) > 1e-9 {
		t.Errorf("gated domcount variance %.6f, want 0.25 + 1/12", v)
	}
}

// TestTopKUncertainCoordinates: overlapping Gaussians yield fractional
// dominance; the stochastically larger object must rank first with an
// expected count strictly between 0 and n−1.
func TestTopKUncertainCoordinates(t *testing.T) {
	agg := NewTopKDominatingAgg([]string{"x", "y"}, 2, TopKOptions{Label: "tag"})
	us := []*UTuple{
		topkUTuple(0, 1, dist.NewNormal(5, 2), dist.NewNormal(5, 2)),
		topkUTuple(1, 2, dist.NewNormal(6, 2), dist.NewNormal(6, 2)),
		topkUTuple(2, 3, dist.NewNormal(4, 2), dist.NewNormal(4, 2)),
	}
	rows := topkFinalize(agg, us, []float64{1, 1, 1})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want k=2", len(rows))
	}
	if keyOf(rows[0].Keys, "tag") != 2 {
		t.Errorf("winner tag %d, want the stochastically largest (2)", keyOf(rows[0].Keys, "tag"))
	}
	m := rows[0].D.Mean()
	if m <= 0.5 || m >= 2 {
		t.Errorf("winner expected dominated count %.4f outside (0.5, 2)", m)
	}
}

// TestTopKTieBreaksByInsertionOrder: identical objects score identically;
// the earlier arrival must take the better rank (never tuple ID, which
// differs across execution modes).
func TestTopKTieBreaksByInsertionOrder(t *testing.T) {
	agg := NewTopKDominatingAgg([]string{"x"}, 2, TopKOptions{Label: "tag"})
	us := []*UTuple{
		topkUTuple(0, 7, dist.NewNormal(5, 1), dist.PointMass{V: 0}),
		topkUTuple(1, 8, dist.NewNormal(5, 1), dist.PointMass{V: 0}),
	}
	rows := topkFinalize(agg, us, []float64{1, 1})
	if keyOf(rows[0].Keys, "tag") != 7 || keyOf(rows[1].Keys, "tag") != 8 {
		t.Errorf("tie ranks [%d %d], want insertion order [7 8]", keyOf(rows[0].Keys, "tag"), keyOf(rows[1].Keys, "tag"))
	}
}

// TestTopKAccMatchesFinalize: the incremental accumulator (with its pdom
// memo, including after removals) and the merge-side Finalize must produce
// bit-identical rows.
func TestTopKAccMatchesFinalize(t *testing.T) {
	agg := NewTopKDominatingAgg([]string{"x", "y"}, 3, TopKOptions{Label: "tag"})
	acc := agg.NewAcc()
	var us []*UTuple
	var hs []uint64
	for i := 0; i < 9; i++ {
		u := topkUTuple(int64(i), int64(100+i),
			dist.NewNormal(float64(i), 1+float64(i%2)), dist.NewNormal(float64(9-i), 2))
		us = append(us, u)
		hs = append(hs, acc.Add(u, 0.3+0.08*float64(i)))
	}
	acc.Remove(hs[1])
	acc.Remove(hs[6])
	var keep []*UTuple
	var ps []float64
	for i, u := range us {
		if i == 1 || i == 6 {
			continue
		}
		keep = append(keep, u)
		ps = append(ps, 0.3+0.08*float64(i))
	}
	got := acc.Result(nil)
	want := topkFinalize(agg, keep, ps)
	if len(got) != len(want) {
		t.Fatalf("row counts %d, %d", len(got), len(want))
	}
	for r := range got {
		if keyOf(got[r].Keys, "tag") != keyOf(want[r].Keys, "tag") ||
			got[r].D.Mean() != want[r].D.Mean() || got[r].D.Variance() != want[r].D.Variance() {
			t.Errorf("rank %d: acc (tag %d, %.17g/%.17g) != finalize (tag %d, %.17g/%.17g)", r+1,
				keyOf(got[r].Keys, "tag"), got[r].D.Mean(), got[r].D.Variance(),
				keyOf(want[r].Keys, "tag"), want[r].D.Mean(), want[r].D.Variance())
		}
	}
}

// TestTopKMemoPrunes: sustained add/remove churn must not grow the pdom
// memo without bound.
func TestTopKMemoPrunes(t *testing.T) {
	agg := NewTopKDominatingAgg([]string{"x"}, 1, TopKOptions{})
	acc := agg.NewAcc().(*topkAcc)
	var live []uint64
	for i := 0; i < 400; i++ {
		u := topkUTuple(int64(i), int64(i), dist.NewNormal(float64(i%17), 1), dist.PointMass{V: 0})
		live = append(live, acc.Add(u, 1))
		if len(live) > 8 {
			acc.Remove(live[0])
			live = live[1:]
		}
		if i%5 == 0 {
			acc.Result(nil) // populate the memo
		}
	}
	if len(acc.pdom) > 2*8*8+64 {
		t.Errorf("pdom memo grew to %d entries for 8 live contributions", len(acc.pdom))
	}
}

// keyOf reads a row key, absent meaning zero.
func keyOf(ks KeySet, name string) int64 {
	v, _ := ks.Get(name)
	return v
}
