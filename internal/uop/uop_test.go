package uop

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

func uval(ts stream.Time, v dist.Dist) *core.UTuple {
	return core.NewUTuple(ts, []string{"v"}, []dist.Dist{v})
}

func TestBuilderCompilesChainTopology(t *testing.T) {
	c := BuildQ1(Q1Config{}).Compile()
	d := c.Describe()
	for _, box := range []string{"src:locations", "γΣ(weight)", "having(P(weight>200)≥0.5)", "results"} {
		if !strings.Contains(d, box) {
			t.Errorf("diagram missing box %q:\n%s", box, d)
		}
	}
	if got := strings.Count(d, "\n"); got != 4 {
		t.Errorf("Q1 compiles to %d boxes, want 4:\n%s", got, d)
	}
}

func TestBuilderSharesSourcesAcrossJoinBranches(t *testing.T) {
	// Both join branches read the same source: one source box must feed
	// both filter boxes.
	left := From("s").Where("a", func(u *core.UTuple) bool { return u.TS%2 == 0 })
	right := From("s").Where("b", func(u *core.UTuple) bool { return u.TS%2 == 1 })
	c := left.JoinProb(right, 10, []string{"v"}, 100, 0).Compile()
	if strings.Count(c.Describe(), "src:s") != 1 {
		t.Errorf("source not shared:\n%s", c.Describe())
	}
	// Self-join across parity: tuples at TS 0 and 1 at the same location.
	c.Push("s", uval(0, dist.PointMass{V: 5}))
	c.Push("s", uval(1, dist.PointMass{V: 5}))
	out := c.Close()
	if len(out) != 1 {
		t.Fatalf("self-join results = %d, want 1", len(out))
	}
}

func TestBuilderUngroupedWindowSumWithHaving(t *testing.T) {
	q := From("xs").
		WindowSpec(stream.WindowSpec{Count: 3}).
		Sum("v", core.CFApprox, core.AggOptions{}).
		Having(Greater(25, 0.5))
	c := q.Compile()
	for i := 0; i < 3; i++ {
		c.Push("xs", uval(stream.Time(i), dist.NewNormal(10, 1)))
	}
	out := c.Close()
	if len(out) != 1 {
		t.Fatalf("results = %d, want 1", len(out))
	}
	u := core.Unwrap(out[0])
	if math.Abs(u.Attr("v").Mean()-30) > 0.5 {
		t.Errorf("window sum mean = %g, want ~30", u.Attr("v").Mean())
	}
	if p := out[0].Get("p").(float64); p < 0.9 {
		t.Errorf("P(sum > 25) = %g, want high", p)
	}
	if g := out[0].Str("group"); g != "" {
		t.Errorf("ungrouped having carries group %q", g)
	}
}

func TestBuilderWindowSurvivesInterveningStages(t *testing.T) {
	// A Window clause followed by a filter must still reach the aggregate:
	// the window applies to the filtered stream.
	q := From("s").
		WindowSpec(stream.WindowSpec{Count: 2}).
		Where("evens", func(u *core.UTuple) bool { return u.TS%2 == 0 }).
		Sum("v", core.CFApprox, core.AggOptions{})
	c := q.Compile()
	for i := 0; i < 4; i++ {
		c.Push("s", uval(stream.Time(i), dist.PointMass{V: 10}))
	}
	out := c.Close()
	// 4 tuples, 2 survive the filter, count-2 window → exactly one sum of 20.
	if len(out) != 1 {
		t.Fatalf("windows = %d, want 1 (Window clause dropped?)", len(out))
	}
	if m := core.Unwrap(out[0]).Attr("v").Mean(); math.Abs(m-20) > 1e-9 {
		t.Errorf("sum = %g, want 20", m)
	}
}

func TestBuilderStagesAfterSumKeepGroupColumn(t *testing.T) {
	one := func(*core.UTuple) []core.GroupMass { return []core.GroupMass{{Group: "cell-7", P: 1}} }
	q := From("s").
		WindowSpec(stream.WindowSpec{Count: 2}).
		GroupBy(one).
		Sum("v", core.CFApprox, core.AggOptions{}).
		Where("keep-all", func(*core.UTuple) bool { return true }).
		WhereGreater("v", 0, 0.5).
		Having(Greater(5, 0.5))
	c := q.Compile()
	c.Push("s", uval(0, dist.PointMass{V: 10}))
	c.Push("s", uval(1, dist.PointMass{V: 10}))
	out := c.Close()
	if len(out) != 1 {
		t.Fatalf("results = %d, want 1", len(out))
	}
	if g := out[0].Str("group"); g != "cell-7" {
		t.Errorf("group = %q after intervening stages, want cell-7", g)
	}
}

func TestBuilderJoinRejectsPendingClauses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("JoinProb with a pending Window should panic")
		}
	}()
	From("a").Window(5*stream.Second).JoinProb(From("b"), 10, []string{"v"}, 1, 0)
}

func TestBuilderPanicsOnDanglingWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compile with unconsumed Window should panic")
		}
	}()
	From("s").Window(5 * stream.Second).Compile()
}

func TestBuilderPanicsOnHavingWithoutAggregate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Having without aggregate should panic")
		}
	}()
	From("s").Having(Greater(1, 0.5))
}

func TestUFilterGreaterScalesExistence(t *testing.T) {
	g := stream.NewGraph()
	f := g.AddBox(core.NewSelectOp("hot", func(u *core.UTuple) *core.UTuple {
		return core.SelectGreater(u, "v", 0, 0.01)
	}))
	sink := &stream.Collect{}
	g.Connect(f, g.AddBox(sink), 0)
	g.Push(f, 0, core.Wrap(uval(0, dist.NewNormal(0, 1))))
	g.Close()
	if len(sink.Tuples) != 1 {
		t.Fatalf("results = %d", len(sink.Tuples))
	}
	u := core.Unwrap(sink.Tuples[0])
	if math.Abs(u.Exist-0.5) > 1e-9 {
		t.Errorf("existence = %g, want 0.5", u.Exist)
	}
	if lo, _ := u.Attr("v").Support(); lo < -1e-9 {
		t.Errorf("conditional distribution not truncated: support starts at %g", lo)
	}
}

func TestDedupLatestKeepsLatestPerKey(t *testing.T) {
	mk := func(ts stream.Time, tag int64, v float64) *core.UTuple {
		u := core.NewUTuple(ts, []string{"v"}, []dist.Dist{dist.PointMass{V: v}})
		u.SetKey("tag", tag)
		return u
	}
	one := func(*core.UTuple) []core.GroupMass { return []core.GroupMass{{Group: "g", P: 1}} }
	q := From("s").
		WindowSpec(stream.WindowSpec{Count: 4}).
		DedupLatest("tag").
		GroupBy(one).
		Sum("v", core.CFApprox, core.AggOptions{})
	c := q.Compile()
	// Tag 1 reports three times (later supersedes earlier); tag 2 once.
	c.Push("s", mk(0, 1, 100))
	c.Push("s", mk(1, 1, 50))
	c.Push("s", mk(2, 2, 7))
	c.Push("s", mk(3, 1, 10))
	out := c.Close()
	if len(out) != 1 {
		t.Fatalf("groups = %d, want 1", len(out))
	}
	sum := core.Unwrap(out[0]).Attr("v").Mean()
	if math.Abs(sum-17) > 0.2 {
		t.Errorf("dedup sum = %g, want ~17 (latest per tag: 10 + 7)", sum)
	}
}

func TestCompiledRunChanMatchesPush(t *testing.T) {
	build := func() *Compiled {
		return From("s").
			WindowSpec(stream.WindowSpec{Count: 5}).
			Sum("v", core.CFApprox, core.AggOptions{}).
			Compile()
	}
	feedVals := make([]*core.UTuple, 20)
	for i := range feedVals {
		feedVals[i] = uval(stream.Time(i), dist.NewNormal(float64(i), 2))
	}
	sync := build().Run(Trace{"s": feedVals}, 0)
	ch := build().Run(Trace{"s": feedVals}, 4)
	if len(sync) != len(ch) {
		t.Fatalf("push emitted %d windows, chan %d", len(sync), len(ch))
	}
	for i := range sync {
		a, b := core.Unwrap(sync[i]).Attr("v"), core.Unwrap(ch[i]).Attr("v")
		if a.Mean() != b.Mean() || a.Variance() != b.Variance() {
			t.Errorf("window %d: push %v vs chan %v", i, a, b)
		}
	}
}

func TestCompiledPanicsOnUnknownSource(t *testing.T) {
	c := From("s").Where("id", func(*core.UTuple) bool { return true }).Compile()
	defer func() {
		if recover() == nil {
			t.Error("pushing to an unknown source should panic")
		}
	}()
	c.Push("nope", uval(0, dist.PointMass{V: 1}))
}
