package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

func TestWrapUnwrapRoundTrip(t *testing.T) {
	u := NewUTuple(7, []string{"v"}, []dist.Dist{dist.NewNormal(1, 1)})
	w := Wrap(u)
	if w.TS != 7 || w.ID != u.ID {
		t.Error("wrap metadata wrong")
	}
	if Unwrap(w) != u {
		t.Error("unwrap identity lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("unwrapping a foreign tuple should panic")
		}
	}()
	Unwrap(stream.NewTuple(stream.NewSchema("u"), 0, "not a utuple"))
}

// TestGraphPipelineEndToEnd wires the Figure 2 shape on the box-arrow
// engine: T-operator output -> uncertain selection -> windowed sum ->
// collect, and checks the result distribution against the direct
// computation.
func TestGraphPipelineEndToEnd(t *testing.T) {
	g := stream.NewGraph()
	sel := g.AddBox(NewSelectOp("hot", func(u *UTuple) *UTuple {
		return SelectGreater(u, "temp", 50, 0.01)
	}))
	sum := g.AddBox(NewWindowAggOp("sum5", WindowAggConfig{
		Window: stream.WindowSpec{Count: 5}, Agg: NewSumAgg("temp", CFApprox, AggOptions{}),
	}))
	sink := &stream.Collect{}
	sb := g.AddBox(sink)
	g.Connect(sel, sum, 0)
	g.Connect(sum, sb, 0)

	var direct []*UTuple
	for i := 0; i < 5; i++ {
		u := NewUTuple(stream.Time(i), []string{"temp"}, []dist.Dist{dist.NewNormal(55, 4)})
		if s := SelectGreater(u.Clone(), "temp", 50, 0.01); s != nil {
			direct = append(direct, s)
		}
		g.Push(sel, 0, Wrap(u))
	}
	g.Close()

	if len(sink.Tuples) != 1 {
		t.Fatalf("got %d result tuples", len(sink.Tuples))
	}
	got := Unwrap(sink.Tuples[0]).Attr("temp")
	want := SumTuples(direct, "temp", CFApprox, AggOptions{}).Attr("temp")
	if math.Abs(got.Mean()-want.Mean()) > 1e-9 {
		t.Errorf("graph sum mean %g vs direct %g", got.Mean(), want.Mean())
	}
	if math.Abs(got.Variance()-want.Variance()) > 1e-9 {
		t.Errorf("graph sum var %g vs direct %g", got.Variance(), want.Variance())
	}
}

func TestGraphGroupSumOp(t *testing.T) {
	g := stream.NewGraph()
	member := func(u *UTuple) []GroupMass {
		if u.Mean("x") < 5 {
			return []GroupMass{{Group: "west", P: 1}}
		}
		return []GroupMass{{Group: "east", P: 1}}
	}
	gs := g.AddBox(NewWindowAggOp("bygroup", WindowAggConfig{
		Window: stream.WindowSpec{Count: 4}, Member: member, Agg: NewSumAgg("w", CFInvert, AggOptions{}),
	}))
	sink := &stream.Collect{}
	sb := g.AddBox(sink)
	g.Connect(gs, sb, 0)

	for i, x := range []float64{1, 2, 8, 9} {
		u := NewUTuple(stream.Time(i), []string{"x", "w"}, []dist.Dist{
			dist.PointMass{V: x}, dist.NewNormal(10, 1),
		})
		g.Push(gs, 0, Wrap(u))
	}
	g.Close()
	if len(sink.Tuples) != 2 {
		t.Fatalf("groups = %d", len(sink.Tuples))
	}
	for _, tp := range sink.Tuples {
		grp := GroupOf(tp)
		u := Unwrap(tp)
		if grp != "east" && grp != "west" {
			t.Errorf("group = %q", grp)
		}
		if math.Abs(u.Attr("w").Mean()-20) > 0.1 {
			t.Errorf("group %s sum mean = %g, want 20", grp, u.Attr("w").Mean())
		}
	}
}

func TestGraphJoinOp(t *testing.T) {
	g := stream.NewGraph()
	j := g.AddBox(NewJoinOp("locjoin", 10*stream.Second, []string{"x"}, 2, 0.05))
	sink := &stream.Collect{}
	sb := g.AddBox(sink)
	g.Connect(j, sb, 0)

	l := NewUTuple(0, []string{"x"}, []dist.Dist{dist.NewNormal(5, 0.5)})
	rNear := NewUTuple(1, []string{"x"}, []dist.Dist{dist.PointMass{V: 5.2}})
	rFar := NewUTuple(1, []string{"x"}, []dist.Dist{dist.PointMass{V: 50}})
	g.Push(j, 0, Wrap(l))
	g.Push(j, 1, Wrap(rNear))
	g.Push(j, 1, Wrap(rFar))
	g.Close()

	if len(sink.Tuples) != 1 {
		t.Fatalf("join results = %d", len(sink.Tuples))
	}
	out := Unwrap(sink.Tuples[0])
	if out.Exist <= 0.5 {
		t.Errorf("near join probability = %g", out.Exist)
	}
	if !out.Lin.Contains(l.ID) || !out.Lin.Contains(rNear.ID) {
		t.Error("join lineage incomplete")
	}
}
