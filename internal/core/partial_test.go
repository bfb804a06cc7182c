package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/snap"
	"repro/internal/stream"
)

// The tests in this file pin the delta-driven sliding partial and the
// run-merging merge at the operator level: the partial ships exactly the
// contributions the per-window rescan would, checkpoints at every input
// boundary restore byte-identically, and the merge survives a checkpoint
// taken while it holds a partly received window.

// partialSpecs are the sliding shapes swept: Range/Slide = 3, and a slide
// gap wider than the range (tuples falling in the gap belong to no window).
var partialSpecs = map[string]stream.WindowSpec{
	"range3":     {Duration: 30, Slide: 10},
	"gap>range":  {Duration: 8, Slide: 20},
	"range=five": {Duration: 50, Slide: 10},
}

// partialWorkload exercises every admission path of the delta partial: tags
// re-report every 21 time units, inside the range, so latest-wins dedup
// replaces winners across slides; every 17th reading is a straggler 25 units
// behind newer readings of its own tag; every 13th step adds a keyless
// reading, routed round-robin and never deduplicated.
func partialWorkload() []*stream.Tuple {
	var ts []*stream.Tuple
	for i := 0; i < 150; i++ {
		tag := int64(i % 7)
		at := stream.Time(i * 3)
		if i%17 == 9 {
			at = max(at-25, 0)
		}
		ts = append(ts, shardTestTuple(at, tag, float64(5+(i*7)%40), 10+float64(tag)+float64(i%5)))
		if i%13 == 0 {
			ts = append(ts, shardTestTuple(at, -1, float64(12+i%20), 4))
		}
	}
	return ts
}

// partitionInputs runs the workload through the plan's partitioner and
// returns what each shard instance receives: its routed tuples with every
// broadcast close interleaved, final flush closes included.
func partitionInputs(plan stream.ShardPlan, p int, in []*stream.Tuple) [][]*stream.Tuple {
	part := stream.NewPartition("part", p, plan.Partition)
	out := make([][]*stream.Tuple, p)
	emit := func(t *stream.Tuple) {
		if shard, ok := t.RouteShard(); ok {
			out[shard] = append(out[shard], t)
			return
		}
		for i := range out {
			out[i] = append(out[i], t)
		}
	}
	for _, t := range in {
		part.Process(0, t, emit)
	}
	part.Flush(emit)
	return out
}

func feedOp(op stream.Operator, in []*stream.Tuple) []*stream.Tuple {
	var out []*stream.Tuple
	for _, t := range in {
		op.Process(0, t, func(o *stream.Tuple) { out = append(out, o) })
	}
	return out
}

// renderParts renders a partial's output stream at byte precision: each
// close's group partials, sorted by group name, through the wire codec
// (contribution order, Seq stamps, prepared distributions, aux and the
// carrier tuples all included), then the close itself.
func renderParts(t *testing.T, outs []*stream.Tuple) string {
	t.Helper()
	var b strings.Builder
	var pending []string
	for _, o := range outs {
		if end, ok := stream.WindowCloseOf(o); ok {
			slices.Sort(pending)
			for _, p := range pending {
				b.WriteString(p)
			}
			pending = pending[:0]
			fmt.Fprintf(&b, "close@%d\n", end)
			continue
		}
		w := &snap.Writer{}
		if err := encodeGroupPartial(w, o.Get("__partial").(*groupPartial)); err != nil {
			t.Fatal(err)
		}
		gp := o.Get("__partial").(*groupPartial)
		pending = append(pending, fmt.Sprintf("%s@%d %x\n", gp.group, o.TS, w.Bytes()))
	}
	if len(pending) > 0 {
		t.Fatalf("partials after the last close: %v", pending)
	}
	return b.String()
}

func partialTestConfig(spec stream.WindowSpec, agg UAgg) WindowAggConfig {
	return WindowAggConfig{Window: spec, DedupKey: "tag", Member: shardTestMember, Agg: agg}
}

func partialTestAggs() map[string]UAgg {
	return map[string]UAgg{
		"sum-cfapprox": NewSumAgg("weight", CFApprox, AggOptions{}),
		"sum-cfinvert": NewSumAgg("weight", CFInvert, AggOptions{GridN: 256}),
		"quantile":     NewQuantileAgg("weight", 0.5, QuantileOptions{}),
		"topk":         NewTopKDominatingAgg([]string{"x", "weight"}, 2, TopKOptions{Label: "tag"}),
	}
}

// TestDeltaPartialMatchesRescanPartial: per close and group, the delta
// partial ships byte-for-byte the contributions the rescan partial
// (Recompute) prepares from scratch — same survivors, same Seq stamps, same
// prepared distributions and aux, same order — for every aggregate, shape
// and shard of a two- and three-way split.
func TestDeltaPartialMatchesRescanPartial(t *testing.T) {
	for aggName, agg := range partialTestAggs() {
		for specName, spec := range partialSpecs {
			cfg := partialTestConfig(spec, agg)
			rcfg := cfg
			rcfg.Recompute = true
			for _, p := range []int{2, 3} {
				plan := NewWindowAggOp("γ", cfg).(PartitionedOp).Shard(p)
				for shard, in := range partitionInputs(plan, p, partialWorkload()) {
					got := renderParts(t, feedOp(NewWindowAggPartialOp("delta", cfg), in))
					ref := renderParts(t, feedOp(NewWindowAggPartialOp("rescan", rcfg), in))
					if !strings.Contains(ref, "@") || !strings.Contains(ref, " ") {
						t.Fatalf("%s/%s P=%d shard %d: rescan partial shipped nothing", aggName, specName, p, shard)
					}
					if got != ref {
						t.Errorf("%s/%s P=%d shard %d: delta partial diverges from rescan at line %d",
							aggName, specName, p, shard, firstDiff(ref, got))
					}
				}
			}
		}
	}
}

func firstDiff(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// TestDeltaPartialCheckpointEveryBoundary: a checkpoint of the delta
// partial at every boundary of its input — between any two tuples, before
// and after every close punctuation — restores into a fresh instance whose
// remaining output is byte-identical to the uninterrupted run.
func TestDeltaPartialCheckpointEveryBoundary(t *testing.T) {
	for specName, spec := range partialSpecs {
		cfg := partialTestConfig(spec, NewQuantileAgg("weight", 0.5, QuantileOptions{}))
		plan := NewWindowAggOp("γ", cfg).(PartitionedOp).Shard(2)
		in := partitionInputs(plan, 2, partialWorkload())[1]
		ref := renderParts(t, feedOp(NewWindowAggPartialOp("part", cfg), in))
		for cut := 0; cut <= len(in); cut++ {
			a := NewWindowAggPartialOp("part", cfg)
			pre := feedOp(a, in[:cut])
			blob, err := a.(stream.Snapshotter).Snapshot()
			if err != nil {
				t.Fatalf("%s cut %d: snapshot: %v", specName, cut, err)
			}
			b := NewWindowAggPartialOp("part", cfg)
			if err := b.(stream.Snapshotter).Restore(blob); err != nil {
				t.Fatalf("%s cut %d: restore: %v", specName, cut, err)
			}
			again, err := b.(stream.Snapshotter).Snapshot()
			if err != nil || string(again) != string(blob) {
				t.Fatalf("%s cut %d: re-snapshot after restore differs (err %v)", specName, cut, err)
			}
			if got := renderParts(t, append(pre, feedOp(b, in[cut:])...)); got != ref {
				t.Fatalf("%s cut %d: restored partial diverges at line %d", specName, cut, firstDiff(ref, got))
			}
		}
	}
}

// renderMerged renders merge output at full float precision, lineage size
// included.
func renderMerged(ts []*stream.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		u := Unwrap(t)
		d := u.Attr(u.Names()[0])
		fmt.Fprintf(&b, "%d|%s|%.17g|%.17g|%d\n", t.TS, GroupOf(t), d.Mean(), d.Variance(), u.Lin.Len())
	}
	return b.String()
}

// TestMergeCheckpointPartlyReceivedWindow: the merge's input — two shards'
// part streams, interleaved the way channel execution can deliver them — is
// cut at every boundary, including cuts where one shard has closed a window
// the other is still sending; the merge snapshots, restores into a fresh
// instance, and the concatenated output equals the uninterrupted run and the
// unsharded box.
func TestMergeCheckpointPartlyReceivedWindow(t *testing.T) {
	for aggName, agg := range partialTestAggs() {
		if aggName == "sum-cfinvert" {
			continue // sum-cfapprox runs the same merge code without an FFT per group and cut
		}
		spec := partialSpecs["range3"]
		cfg := partialTestConfig(spec, agg)
		unsharded := renderMerged(func() []*stream.Tuple {
			op := NewWindowAggOp("γ", cfg)
			out := feedOp(op, partialWorkload())
			op.Flush(func(o *stream.Tuple) { out = append(out, o) })
			return out
		}())
		const p = 2
		plan := NewWindowAggOp("γ", cfg).(PartitionedOp).Shard(p)
		ins := partitionInputs(plan, p, partialWorkload())
		type portTuple struct {
			port int
			t    *stream.Tuple
		}
		var merged []portTuple
		outs := make([][]*stream.Tuple, p)
		for i := range outs {
			outs[i] = feedOp(plan.Shards[i], ins[i])
		}
		g := rand.New(rand.NewSource(7))
		for len(outs[0])+len(outs[1]) > 0 {
			i := g.Intn(p)
			if len(outs[i]) == 0 {
				i = 1 - i
			}
			n := min(1+g.Intn(6), len(outs[i]))
			for _, o := range outs[i][:n] {
				merged = append(merged, portTuple{i, o})
			}
			outs[i] = outs[i][n:]
		}
		run := func(op stream.Operator, in []portTuple) []*stream.Tuple {
			var out []*stream.Tuple
			for _, pt := range in {
				op.Process(pt.port, pt.t, func(o *stream.Tuple) { out = append(out, o) })
			}
			return out
		}
		mk := func() stream.Operator { return NewWindowAggMergeOp("merge", cfg, p) }
		ref := renderMerged(run(mk(), merged))
		if ref != unsharded {
			t.Fatalf("%s: sharded merge diverges from the unsharded box at line %d", aggName, firstDiff(unsharded, ref))
		}
		partly := 0
		for cut := 0; cut <= len(merged); cut++ {
			a := mk()
			pre := run(a, merged[:cut])
			for _, w := range a.(*windowAggMerge).wins {
				if w.closes > 0 && w.closes < p && len(w.groups) > 0 {
					partly++
					break
				}
			}
			blob, err := a.(stream.Snapshotter).Snapshot()
			if err != nil {
				t.Fatalf("%s cut %d: snapshot: %v", aggName, cut, err)
			}
			b := mk()
			if err := b.(stream.Snapshotter).Restore(blob); err != nil {
				t.Fatalf("%s cut %d: restore: %v", aggName, cut, err)
			}
			again, err := b.(stream.Snapshotter).Snapshot()
			if err != nil || string(again) != string(blob) {
				t.Fatalf("%s cut %d: re-snapshot after restore differs (err %v)", aggName, cut, err)
			}
			if got := renderMerged(append(pre, run(b, merged[cut:])...)); got != ref {
				t.Fatalf("%s cut %d: restored merge diverges at line %d", aggName, cut, firstDiff(ref, got))
			}
		}
		if partly == 0 {
			t.Fatalf("%s: no cut landed on a partly received window", aggName)
		}
	}
}

// TestMergeBySeq: merging Seq-ascending runs gives the stable Seq sort of
// their concatenation, and seqRuns recovers runs a flat list was written
// from.
func TestMergeBySeq(t *testing.T) {
	g := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 1 + g.Intn(5)
		runs := make([][]PartialContrib, k)
		var seq uint64
		var flat []PartialContrib
		for seq < 60 {
			r := g.Intn(k)
			runs[r] = append(runs[r], PartialContrib{Seq: seq, P: float64(r)})
			seq += 1 + uint64(g.Intn(3))
		}
		for _, r := range runs {
			flat = append(flat, r...)
		}
		want := slices.Clone(flat)
		slices.SortStableFunc(want, func(a, b PartialContrib) int { return int(a.Seq) - int(b.Seq) })
		same := func(a, b []PartialContrib) bool {
			return slices.EqualFunc(a, b, func(x, y PartialContrib) bool { return x.Seq == y.Seq && x.P == y.P })
		}
		refRuns := make([][]*PartialContrib, k)
		for i, r := range runs {
			refRuns[i] = refs(r)
		}
		if got := mergeBySeq(nil, refRuns); !same(got, want) {
			t.Fatalf("trial %d: mergeBySeq disagrees with the stable sort", trial)
		}
		if got := mergeBySeq(nil, seqRuns(flat)); !same(got, want) {
			t.Fatalf("trial %d: runs recovered by seqRuns merge differently", trial)
		}
	}
	if runs := seqRuns(nil); len(runs) != 1 || len(runs[0]) != 0 {
		t.Errorf("seqRuns(empty) = %v, want one empty run", runs)
	}
}
