package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/stream"
)

// testMember spreads each tuple over two groups keyed off its tag — a
// deterministic stand-in for the area-membership function with the same
// multi-group shape.
func testMember(u *UTuple) []GroupMass {
	k := u.Key("tag")
	return []GroupMass{
		{Group: fmt.Sprintf("g%d", k%5), P: 0.7},
		{Group: fmt.Sprintf("g%d", (k+1)%5), P: 0.3},
	}
}

// groupWorkload builds a stream of keyed uncertain tuples: repeated tags
// (so dedup-replace fires), existence < 1, and optional timestamp
// stragglers.
func groupWorkload(n int, seed int64, stragglers bool) []*UTuple {
	g := rng.New(seed)
	us := make([]*UTuple, 0, n)
	ts := stream.Time(0)
	for i := 0; i < n; i++ {
		ts += stream.Time(g.Intn(400))
		t := ts
		if stragglers && g.Float64() < 0.15 {
			t -= stream.Time(g.Intn(3000)) // late arrival, possibly several slides old
			if t < 0 {
				t = 0
			}
		}
		u := NewUTuple(t, []string{"weight"},
			[]dist.Dist{dist.NewNormal(g.Normal(120, 40), math.Abs(g.Normal(0, 8))+0.5)})
		u.SetKey("tag", int64(g.Intn(12)))
		u.Exist = 0.5 + 0.5*g.Float64()
		us = append(us, u)
	}
	return us
}

// runGroupOp feeds tuples through a group-sum operator and renders every
// emission at full precision.
func runGroupOp(op stream.Operator, us []*UTuple) string {
	var b strings.Builder
	emit := func(t *stream.Tuple) {
		u := Unwrap(t)
		d := u.Attr("weight")
		fmt.Fprintf(&b, "%d|%s|%.17g|%.17g|%.17g\n",
			t.TS, t.Str("group"), d.Mean(), d.Variance(), d.CDF(200))
	}
	for _, u := range us {
		op.Process(0, Wrap(u), emit)
	}
	op.Flush(emit)
	return b.String()
}

// TestIncGroupSumMatchesRescan pins the tentpole acceptance at the operator
// level: the incremental delta-driven group-sum box and the rescan box must
// produce byte-identical emissions — same windows, same groups, same
// distributions to the last bit — across strategies, dedup, stragglers and
// the parallel per-group emission heavy strategies fan out to.
func TestIncGroupSumMatchesRescan(t *testing.T) {
	cases := []struct {
		name       string
		strat      Strategy
		opts       AggOptions
		dedup      string
		stragglers bool
		procs      int // GOMAXPROCS, which sizes the emission pool of heavy strategies
	}{
		{name: "cfapprox", strat: CFApprox},
		{name: "cfapprox-dedup", strat: CFApprox, dedup: "tag"},
		{name: "cfapprox-dedup-stragglers", strat: CFApprox, dedup: "tag", stragglers: true},
		{name: "cfinvert-parallel", strat: CFInvert, opts: AggOptions{GridN: 256}, dedup: "tag", procs: 4},
		{name: "clt", strat: CLT, dedup: "tag"},
		{name: "cfinvert", strat: CFInvert, opts: AggOptions{GridN: 256}, dedup: "tag"},
		{name: "histogram-sampling", strat: HistogramSampling, opts: AggOptions{Samples: 200}, dedup: "tag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			us := groupWorkload(300, 77, tc.stragglers)
			spec := stream.WindowSpec{Duration: 5000, Slide: 1000}
			mk := func(recompute bool) stream.Operator {
				return NewWindowAggOp("γΣ", WindowAggConfig{
					Window: spec, DedupKey: tc.dedup, Member: testMember,
					Agg: NewSumAgg("weight", tc.strat, tc.opts), Recompute: recompute,
				})
			}
			ref := runGroupOp(mk(true), us)
			if ref == "" {
				t.Fatal("rescan reference produced no emissions")
			}
			got := runGroupOp(mk(false), us)
			if got != ref {
				t.Errorf("incremental diverges from rescan:\nref:\n%s\ngot:\n%s",
					head(ref, 12), head(got, 12))
			}
		})
	}
}

// TestIncGroupSumDedupEvictionInterplay hand-drives the latest-wins replace
// against eviction: an updated reading must supersede its predecessor
// within shared windows, and a superseded tuple must never resurface after
// the winner is evicted.
func TestIncGroupSumDedupEvictionInterplay(t *testing.T) {
	mkTuple := func(ts stream.Time, tag int64, w float64) *UTuple {
		u := NewUTuple(ts, []string{"weight"}, []dist.Dist{dist.PointMass{V: w}})
		u.SetKey("tag", tag)
		return u
	}
	us := []*UTuple{
		mkTuple(0, 1, 10),
		mkTuple(500, 1, 20), // replaces the first reading in every shared window
		mkTuple(900, 2, 7),
		mkTuple(2500, 1, 30),  // replaces again in later windows
		mkTuple(4100, 3, 100), // plain new tag
		mkTuple(9500, 2, 9),   // far later: earlier tags all evicted by now
	}
	spec := stream.WindowSpec{Duration: 3000, Slide: 1000}
	mk := func(recompute bool) stream.Operator {
		return NewWindowAggOp("γΣ", WindowAggConfig{
			Window: spec, DedupKey: "tag", Member: testMember,
			Agg: NewSumAgg("weight", CFApprox, AggOptions{}), Recompute: recompute,
		})
	}
	ref := runGroupOp(mk(true), us)
	got := runGroupOp(mk(false), us)
	if got != ref {
		t.Errorf("dedup/eviction interplay diverges:\nref:\n%s\ngot:\n%s", ref, got)
	}
	// Sanity: the superseded 10 lb reading must not be in the first window's
	// g1 sum (0.7·20 = 14 from the winner, plus tag 2's contribution).
	if !strings.Contains(ref, "|g1|") {
		t.Fatalf("expected group g1 in output:\n%s", ref)
	}
}

// runSumOp feeds tuples through an ungrouped sum operator.
func runSumOp(op stream.Operator, us []*UTuple) []dist.Dist {
	var out []dist.Dist
	emit := func(t *stream.Tuple) { out = append(out, Unwrap(t).Attr("weight")) }
	for _, u := range us {
		op.Process(0, Wrap(u), emit)
	}
	op.Flush(emit)
	return out
}

// TestIncSumMatchesRescan covers the ungrouped sum, the spine's single
// implicit group: the incremental box refolds exactly what the rescan folds,
// so every strategy is bit-identical.
func TestIncSumMatchesRescan(t *testing.T) {
	us := groupWorkload(250, 99, true)
	spec := stream.WindowSpec{Duration: 4000, Slide: 800}
	for _, tc := range []struct {
		name  string
		strat Strategy
		opts  AggOptions
	}{
		{"cfapprox", CFApprox, AggOptions{}},
		{"clt", CLT, AggOptions{}},
		{"cfinvert", CFInvert, AggOptions{GridN: 256}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(recompute bool) stream.Operator {
				return NewWindowAggOp("γΣ", WindowAggConfig{
					Window: spec, Agg: NewSumAgg("weight", tc.strat, tc.opts), Recompute: recompute,
				})
			}
			ref := runSumOp(mk(true), us)
			got := runSumOp(mk(false), us)
			if len(ref) == 0 || len(got) != len(ref) {
				t.Fatalf("emissions: ref %d, got %d", len(ref), len(got))
			}
			for i := range ref {
				rm, gm := ref[i].Mean(), got[i].Mean()
				rv, gv := ref[i].Variance(), got[i].Variance()
				if rm != gm || rv != gv {
					t.Fatalf("window %d: (%.17g, %.17g) != (%.17g, %.17g)", i, gm, gv, rm, rv)
				}
			}
		})
	}
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
