package stream

import (
	"fmt"
	"testing"
)

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("a", "b", "c")
	if s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Error("Index wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate field should panic")
		}
	}()
	NewSchema("x", "x")
}

func TestTupleAccessors(t *testing.T) {
	s := NewSchema("x", "name", "n")
	tp := NewTuple(s, 100, 1.5, "hello", int64(7))
	if tp.Float("x") != 1.5 || tp.Str("name") != "hello" || tp.Float("n") != 7 {
		t.Error("accessors wrong")
	}
	if tp.ID == 0 {
		t.Error("tuple should get an ID")
	}
	d := tp.WithFields(NewSchema("x"), 2.5)
	if d.ID != tp.ID || d.TS != tp.TS {
		t.Error("WithFields must preserve identity and timestamp")
	}
	if Derive(s, 5, 1.0, "a", int64(1)).ID == tp.ID {
		t.Error("Derive must mint a fresh ID")
	}
}

func TestSelectAndFilter(t *testing.T) {
	s := NewSchema("v")
	g := NewGraph()
	double := g.AddBox(NewSelect("double", func(t *Tuple) *Tuple {
		return t.WithFields(s, t.Float("v")*2)
	}))
	keep := g.AddBox(NewFilter("big", func(t *Tuple) bool { return t.Float("v") > 5 }))
	sink := &Collect{}
	sb := g.AddBox(sink)
	g.Connect(double, keep, 0)
	g.Connect(keep, sb, 0)
	for i := 1; i <= 5; i++ {
		g.Push(double, 0, NewTuple(s, Time(i), float64(i)))
	}
	g.Close()
	// i=1..5 doubled: 2,4,6,8,10; filtered >5 keeps 6,8,10.
	if len(sink.Tuples) != 3 {
		t.Fatalf("got %d tuples: %s", len(sink.Tuples), sink.String())
	}
}

func TestTumblingCountWindow(t *testing.T) {
	s := NewSchema("v")
	sums := []float64{}
	op := NewWindow("w", WindowSpec{Count: 3}, func(win []*Tuple, end Time, emit Emit) {
		var sum float64
		for _, tp := range win {
			sum += tp.Float("v")
		}
		sums = append(sums, sum)
	})
	emit := func(*Tuple) {}
	for i := 1; i <= 7; i++ {
		op.Process(0, NewTuple(s, Time(i), float64(i)), emit)
	}
	op.Flush(emit)
	want := []float64{6, 15, 7} // (1+2+3), (4+5+6), (7 flushed)
	if len(sums) != len(want) {
		t.Fatalf("windows = %v", sums)
	}
	for i := range want {
		if sums[i] != want[i] {
			t.Errorf("window %d sum = %g, want %g", i, sums[i], want[i])
		}
	}
}

func TestTumblingTimeWindow(t *testing.T) {
	s := NewSchema("v")
	var ends []Time
	var counts []int
	op := NewWindow("w", WindowSpec{Duration: 10}, func(win []*Tuple, end Time, emit Emit) {
		ends = append(ends, end)
		counts = append(counts, len(win))
	})
	emit := func(*Tuple) {}
	for _, ts := range []Time{0, 3, 9, 10, 12, 25, 31} {
		op.Process(0, NewTuple(s, ts, 1.0), emit)
	}
	op.Flush(emit)
	// Window [0,10): {0,3,9} -> end 10; [10,20): {10,12} -> end 20;
	// [20,30): {25} -> end 30; [30,40): {31} flushed at 40.
	wantEnds := []Time{10, 20, 30, 40}
	wantCounts := []int{3, 2, 1, 1}
	if fmt.Sprint(ends) != fmt.Sprint(wantEnds) || fmt.Sprint(counts) != fmt.Sprint(wantCounts) {
		t.Errorf("ends=%v counts=%v, want %v %v", ends, counts, wantEnds, wantCounts)
	}
}

func TestSlidingTimeWindow(t *testing.T) {
	s := NewSchema("v")
	var snapshots []string
	op := NewWindow("w", WindowSpec{Duration: 10, Slide: 5}, func(win []*Tuple, end Time, emit Emit) {
		snapshots = append(snapshots, fmt.Sprintf("end=%d n=%d", end, len(win)))
	})
	emit := func(*Tuple) {}
	for _, ts := range []Time{0, 2, 6, 8, 12, 14} {
		op.Process(0, NewTuple(s, ts, 1.0), emit)
	}
	op.Flush(emit)
	// Slides close at 5 ({0,2}), 10 ({0,2,6,8}); Flush drains the trailing
	// buffer through every remaining window: 15 ({6,8,12,14}) and
	// 20 ({12,14}). The all-evicted window at 25 is not emitted.
	want := []string{"end=5 n=2", "end=10 n=4", "end=15 n=4", "end=20 n=2"}
	if fmt.Sprint(snapshots) != fmt.Sprint(want) {
		t.Errorf("snapshots = %v, want %v", snapshots, want)
	}
}

// TestSlidingFlushDrainsMultipleSlides is the regression test for the flush
// bug: trailing buffered tuples spanning more than one slide past winStart
// used to appear only in the first flushed window.
func TestSlidingFlushDrainsMultipleSlides(t *testing.T) {
	s := NewSchema("v")
	var snapshots []string
	op := NewWindow("w", WindowSpec{Duration: 4, Slide: 1}, func(win []*Tuple, end Time, emit Emit) {
		snapshots = append(snapshots, fmt.Sprintf("end=%d n=%d", end, len(win)))
	})
	emit := func(*Tuple) {}
	op.Process(0, NewTuple(s, 0, 1.0), emit)
	op.Flush(emit)
	// A single tuple at 0 with range 4, slide 1 belongs to the windows
	// ending at 1, 2, 3 and 4 — flush must emit all of them.
	want := []string{"end=1 n=1", "end=2 n=1", "end=3 n=1", "end=4 n=1"}
	if fmt.Sprint(snapshots) != fmt.Sprint(want) {
		t.Errorf("snapshots = %v, want %v", snapshots, want)
	}
}

func TestWindowSpecValidation(t *testing.T) {
	for _, bad := range []WindowSpec{{}, {Count: 3, Duration: 5}, {Count: 2, Slide: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v should panic", bad)
				}
			}()
			bad.Validate()
		}()
	}
}

func TestJoinMatchesWithinRange(t *testing.T) {
	ls := NewSchema("id", "x")
	rs := NewSchema("id", "y")
	os := NewSchema("id", "x", "y")
	var got []string
	j := NewJoin("j", 10,
		func(l, r *Tuple) bool { return l.Str("id") == r.Str("id") },
		func(l, r *Tuple) *Tuple {
			return Derive(os, maxTime(l.TS, r.TS), l.Str("id"), l.Float("x"), r.Float("y"))
		})
	emit := func(t *Tuple) { got = append(got, t.Format()) }
	j.Process(0, NewTuple(ls, 0, "a", 1.0), emit)
	j.Process(1, NewTuple(rs, 5, "a", 2.0), emit) // match (within 10)
	j.Process(1, NewTuple(rs, 8, "b", 3.0), emit) // no match
	j.Process(0, NewTuple(ls, 9, "b", 4.0), emit) // match with b@8
	j.Process(0, NewTuple(ls, 30, "a", 5.0), emit)
	j.Process(1, NewTuple(rs, 45, "a", 6.0), emit) // a@30 evicted (45-10=35 > 30)
	if len(got) != 2 {
		t.Fatalf("got %d matches: %v", len(got), got)
	}
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

func TestJoinRejectsBadPort(t *testing.T) {
	j := NewJoin("j", 1, func(l, r *Tuple) bool { return true }, func(l, r *Tuple) *Tuple { return nil })
	defer func() {
		if recover() == nil {
			t.Error("port 2 should panic")
		}
	}()
	j.Process(2, NewTuple(NewSchema("v"), 0, 1.0), func(*Tuple) {})
}

func TestGraphSyncVsChanEquivalence(t *testing.T) {
	build := func() (*Graph, *Box, *Collect) {
		s := NewSchema("v")
		g := NewGraph()
		src := g.AddBox(NewSelect("inc", func(t *Tuple) *Tuple {
			return t.WithFields(s, t.Float("v")+1)
		}))
		agg := g.AddBox(NewWindow("sum3", WindowSpec{Count: 3}, func(win []*Tuple, end Time, emit Emit) {
			var sum float64
			for _, t := range win {
				sum += t.Float("v")
			}
			emit(Derive(s, end, sum))
		}))
		sink := &Collect{}
		sb := g.AddBox(sink)
		g.Connect(src, agg, 0)
		g.Connect(agg, sb, 0)
		return g, src, sink
	}

	s := NewSchema("v")
	// Synchronous run.
	g1, src1, sink1 := build()
	for i := 0; i < 10; i++ {
		g1.Push(src1, 0, NewTuple(s, Time(i), float64(i)))
	}
	g1.Close()

	// Channel run.
	g2, src2, sink2 := build()
	runFinite(g2, 8, func(inject func(*Box, int, *Tuple)) {
		for i := 0; i < 10; i++ {
			inject(src2, 0, NewTuple(s, Time(i), float64(i)))
		}
	})

	if len(sink1.Tuples) != len(sink2.Tuples) {
		t.Fatalf("sync %d tuples, chan %d", len(sink1.Tuples), len(sink2.Tuples))
	}
	for i := range sink1.Tuples {
		if sink1.Tuples[i].Float("v") != sink2.Tuples[i].Float("v") {
			t.Errorf("tuple %d: %g vs %g", i, sink1.Tuples[i].Float("v"), sink2.Tuples[i].Float("v"))
		}
	}
}

func TestGraphStatsAndDescribe(t *testing.T) {
	s := NewSchema("v")
	g := NewGraph()
	a := g.AddBox(NewSelect("id", func(t *Tuple) *Tuple { return t }))
	sink := &Collect{}
	b := g.AddBox(sink)
	g.Connect(a, b, 0)
	for i := 0; i < 5; i++ {
		g.Push(a, 0, NewTuple(s, Time(i), 1.0))
	}
	g.Close()
	if a.Stats().In != 5 || a.Stats().Out != 5 {
		t.Errorf("stats = %+v", a.Stats())
	}
	if g.Describe() == "" {
		t.Error("Describe empty")
	}
}

func TestUnionMergesPorts(t *testing.T) {
	s := NewSchema("v")
	g := NewGraph()
	u := g.AddBox(NewUnion("u"))
	sink := &Collect{}
	sb := g.AddBox(sink)
	g.Connect(u, sb, 0)
	g.Push(u, 0, NewTuple(s, 1, 1.0))
	g.Push(u, 1, NewTuple(s, 2, 2.0))
	g.Close()
	if len(sink.Tuples) != 2 {
		t.Errorf("union lost tuples: %d", len(sink.Tuples))
	}
}
