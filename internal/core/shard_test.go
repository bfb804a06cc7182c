package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

// shardTestMember spreads a tuple across one or two groups by its "x" mean.
func shardTestMember(u *UTuple) []GroupMass {
	x := u.Attr("x").Mean()
	cell := fmt.Sprintf("c%d", int(x)/10)
	if int(x)%10 >= 7 {
		next := fmt.Sprintf("c%d", int(x)/10+1)
		return []GroupMass{{Group: cell, P: 0.7}, {Group: next, P: 0.3}}
	}
	return []GroupMass{{Group: cell, P: 1}}
}

func shardTestTuple(ts stream.Time, tag int64, x, w float64) *stream.Tuple {
	u := NewUTuple(ts, []string{"x", "weight"}, []dist.Dist{dist.NewNormal(x, 2), dist.PointMass{V: w}})
	if tag >= 0 {
		u.SetKey("tag", tag)
	}
	return Wrap(u)
}

func renderGrouped(ts []*stream.Tuple) string {
	out := ""
	for _, t := range ts {
		if stream.IsControl(t) {
			continue
		}
		u := Unwrap(t)
		d := u.Attr("weight")
		out += fmt.Sprintf("%d|%s|%.17g|%.17g|%d\n", t.TS, GroupOf(t), d.Mean(), d.Variance(), u.Lin.Len())
	}
	return out
}

// TestGroupSumShardPlanMatchesUnsharded wires a PartitionedOp's ShardPlan
// by hand and pins byte-identical grouped output against the unsharded box,
// across shard counts, with dedup replacement and straggler arrivals in the
// stream.
func TestGroupSumShardPlanMatchesUnsharded(t *testing.T) {
	cfg := WindowAggConfig{
		Window:   stream.WindowSpec{Duration: 10},
		DedupKey: "tag",
		Member:   shardTestMember,
		Agg:      NewSumAgg("weight", CFApprox, AggOptions{}),
	}
	feedTuples := func() []*stream.Tuple {
		var ts []*stream.Tuple
		for i := 0; i < 60; i++ {
			tag := int64(i % 9)
			ts = append(ts, shardTestTuple(stream.Time(i), tag, float64(5+i%30), 10+float64(tag)))
			if i%7 == 0 {
				// Same tag again in the same window: dedup-replace.
				ts = append(ts, shardTestTuple(stream.Time(i), tag, float64(8+i%30), 10+float64(tag)))
			}
			if i == 35 {
				// Straggler: timestamp far behind the stream.
				ts = append(ts, shardTestTuple(stream.Time(3), 100, 12, 55))
			}
			if i == 40 {
				ts = append(ts, shardTestTuple(stream.Time(i), -1, 17, 5)) // keyless
			}
		}
		return ts
	}

	unsharded := func() string {
		g := stream.NewGraph()
		box := g.AddBox(NewWindowAggOp("γ", cfg))
		sink := &stream.Collect{}
		sb := g.AddBox(sink)
		g.Connect(box, sb, 0)
		for _, t := range feedTuples() {
			g.Push(box, 0, t)
		}
		g.Close()
		return renderGrouped(sink.Tuples)
	}()
	if unsharded == "" {
		t.Fatal("unsharded plan produced nothing")
	}

	for _, p := range []int{1, 2, 3, 5} {
		op := NewWindowAggOp("γ", cfg).(PartitionedOp)
		plan := op.Shard(p)
		g := stream.NewGraph()
		part := g.AddBox(stream.NewPartition("part", p, plan.Partition))
		var shardBoxes []*stream.Box
		for _, s := range plan.Shards {
			sb := g.AddBox(s)
			g.Connect(part, sb, 0)
			shardBoxes = append(shardBoxes, sb)
		}
		mb := g.AddBox(plan.Merge)
		for i, sb := range shardBoxes {
			g.Connect(sb, mb, i)
		}
		sink := &stream.Collect{}
		sb := g.AddBox(sink)
		g.Connect(mb, sb, 0)
		for _, tp := range feedTuples() {
			g.Push(part, 0, tp)
		}
		g.Close()
		if got := renderGrouped(sink.Tuples); got != unsharded {
			t.Errorf("shard plan P=%d diverges:\nref:\n%s\ngot:\n%s", p, unsharded, got)
		}
	}
}

// TestGroupSumShardPlanCountWindowDuplicateTS: count windows can close
// several windows at the same end timestamp (that is what count windows are
// for), so the merge must match closes to windows by per-port ordinal, not
// by end time — under the channel executor one shard's closes for two
// same-end windows may both arrive before another shard's first.
func TestGroupSumShardPlanCountWindowDuplicateTS(t *testing.T) {
	cfg := WindowAggConfig{
		Window:   stream.WindowSpec{Count: 4},
		DedupKey: "tag",
		Member:   shardTestMember,
		Agg:      NewSumAgg("weight", CFApprox, AggOptions{}),
	}
	feedTuples := func() []*stream.Tuple {
		var ts []*stream.Tuple
		for i := 0; i < 48; i++ {
			// All tuples share one timestamp: every window closes at end=7.
			ts = append(ts, shardTestTuple(7, int64(i%5), float64(3+i%40), 10+float64(i%5)))
		}
		return ts
	}
	unsharded := func() string {
		g := stream.NewGraph()
		box := g.AddBox(NewWindowAggOp("γ", cfg))
		sink := &stream.Collect{}
		sb := g.AddBox(sink)
		g.Connect(box, sb, 0)
		for _, tp := range feedTuples() {
			g.Push(box, 0, tp)
		}
		g.Close()
		return renderGrouped(sink.Tuples)
	}()
	if unsharded == "" {
		t.Fatal("unsharded plan produced nothing")
	}
	for _, p := range []int{2, 3} {
		// Channel execution interleaves shard goroutines arbitrarily; repeat
		// a few times to give a mismatched close-to-window pairing every
		// chance to show up.
		for round := 0; round < 5; round++ {
			op := NewWindowAggOp("γ", cfg).(PartitionedOp)
			plan := op.Shard(p)
			g := stream.NewGraph()
			part := g.AddBox(stream.NewPartition("part", p, plan.Partition))
			var shardBoxes []*stream.Box
			for _, s := range plan.Shards {
				sb := g.AddBox(s)
				g.Connect(part, sb, 0)
				shardBoxes = append(shardBoxes, sb)
			}
			mb := g.AddBox(plan.Merge)
			for i, sb := range shardBoxes {
				g.Connect(sb, mb, i)
			}
			sink := &stream.Collect{}
			sb := g.AddBox(sink)
			g.Connect(mb, sb, 0)
			var sts []stream.SourceTuple
			for _, tp := range feedTuples() {
				sts = append(sts, stream.SourceTuple{Box: part, Port: 0, T: tp})
			}
			if err := g.RunLiveOpts(context.Background(), stream.SliceSource(sts), stream.LiveOptions{Buffer: 2}); err != nil {
				t.Fatalf("RunLiveOpts: %v", err)
			}
			if got := renderGrouped(sink.Tuples); got != unsharded {
				t.Fatalf("count-window shard plan P=%d diverges:\nref:\n%s\ngot:\n%s", p, unsharded, got)
			}
		}
	}
}

// TestDedupLatestKeylessSurvives: tuples missing the dedup key are never
// deduplicated.
func TestDedupLatestKeylessSurvives(t *testing.T) {
	mk := func(ts stream.Time, tag int64) *UTuple {
		u := NewUTuple(ts, []string{"x"}, []dist.Dist{dist.PointMass{V: 1}})
		if tag >= 0 {
			u.SetKey("tag", tag)
		}
		return u
	}
	us := []*UTuple{mk(1, 5), mk(2, -1), mk(3, 5), mk(4, -1)}
	var ws []*stream.Tuple
	for _, u := range us {
		ws = append(ws, Wrap(u))
	}
	got := dedupLatestTuples(ws, "tag")
	if len(got) != 3 {
		t.Fatalf("dedupLatestTuples kept %d tuples, want 3 (two keyless + latest of tag 5)", len(got))
	}
	if Unwrap(got[0]) != us[1] || Unwrap(got[1]) != us[2] || Unwrap(got[2]) != us[3] {
		t.Errorf("dedupLatestTuples survivors out of order: %v", got)
	}
}

// TestMomentDistDelegates: the moment cache serves Mean/Variance from the
// shard-computed values and forwards everything else to the gated mixture.
func TestMomentDistDelegates(t *testing.T) {
	base := BernoulliGate(dist.NewNormal(4, 2), 0.6)
	m := newMomentDist(dist.ValOf(dist.NewNormal(4, 2)), 0.6)
	if m.Mean() != base.Mean() || m.Variance() != base.Variance() {
		t.Error("cached moments diverge from the gated mixture")
	}
	if m.CDF(3.5) != base.CDF(3.5) || m.CF(0.7) != base.CF(0.7) {
		t.Error("delegated methods diverge from the gated mixture")
	}
}
