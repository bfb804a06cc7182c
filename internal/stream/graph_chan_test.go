package stream

import (
	"context"
	"testing"
)

// runFinite runs a finite trace on the channel executor: feed's injections
// are collected into a SliceSource, which RunLiveOpts drains.
func runFinite(g *Graph, buffer int, feed func(inject func(*Box, int, *Tuple))) {
	var sts []SourceTuple
	feed(func(b *Box, port int, t *Tuple) {
		sts = append(sts, SourceTuple{Box: b, Port: port, T: t})
	})
	if err := g.RunLiveOpts(context.Background(), SliceSource(sts), LiveOptions{Buffer: buffer}); err != nil {
		panic(err) // a background context never cancels
	}
}

// TestRunChanDiamondTopology runs a diamond (source -> two parallel maps ->
// union -> sink) through the channel executor and checks no tuple is lost
// or duplicated.
func TestRunChanDiamondTopology(t *testing.T) {
	s := NewSchema("v")
	g := NewGraph()
	src := g.AddBox(NewSelect("src", func(t *Tuple) *Tuple { return t }))
	left := g.AddBox(NewSelect("left", func(t *Tuple) *Tuple {
		return t.WithFields(s, t.Float("v")*10)
	}))
	right := g.AddBox(NewSelect("right", func(t *Tuple) *Tuple {
		return t.WithFields(s, t.Float("v")+0.5)
	}))
	u := g.AddBox(NewUnion("merge"))
	sink := &Collect{}
	sb := g.AddBox(sink)
	g.Connect(src, left, 0)
	g.Connect(src, right, 0)
	g.Connect(left, u, 0)
	g.Connect(right, u, 1)
	g.Connect(u, sb, 0)

	const n = 200
	runFinite(g, 16, func(inject func(*Box, int, *Tuple)) {
		for i := 0; i < n; i++ {
			inject(src, 0, NewTuple(s, Time(i), float64(i)))
		}
	})

	if len(sink.Tuples) != 2*n {
		t.Fatalf("diamond delivered %d tuples, want %d", len(sink.Tuples), 2*n)
	}
	// Each input value must appear exactly once per branch.
	seen := map[float64]int{}
	for _, tp := range sink.Tuples {
		seen[tp.Float("v")]++
	}
	for i := 0; i < n; i++ {
		if seen[float64(i)*10] != 1 {
			t.Fatalf("left branch value %d seen %d times", i, seen[float64(i)*10])
		}
		if seen[float64(i)+0.5] != 1 {
			t.Fatalf("right branch value %d seen %d times", i, seen[float64(i)+0.5])
		}
	}
}

// TestRunChanJoinTwoPorts drives a two-input join through the channel
// executor: port routing must hold under concurrency.
func TestRunChanJoinTwoPorts(t *testing.T) {
	ls := NewSchema("id")
	g := NewGraph()
	lSrc := g.AddBox(NewSelect("l", func(t *Tuple) *Tuple { return t }))
	rSrc := g.AddBox(NewSelect("r", func(t *Tuple) *Tuple { return t }))
	j := g.AddBox(NewJoin("j", 1000,
		func(l, r *Tuple) bool { return l.Str("id") == r.Str("id") },
		func(l, r *Tuple) *Tuple { return Derive(ls, r.TS, l.Str("id")) }))
	sink := &Collect{}
	sb := g.AddBox(sink)
	g.Connect(lSrc, j, 0)
	g.Connect(rSrc, j, 1)
	g.Connect(j, sb, 0)

	runFinite(g, 8, func(inject func(*Box, int, *Tuple)) {
		for i := 0; i < 50; i++ {
			id := string(rune('a' + i%5))
			inject(lSrc, 0, NewTuple(ls, Time(i), id))
		}
		for i := 0; i < 50; i++ {
			id := string(rune('a' + i%5))
			inject(rSrc, 0, NewTuple(ls, Time(i), id))
		}
	})
	if len(sink.Tuples) == 0 {
		t.Fatal("join produced nothing under channel execution")
	}
	for _, tp := range sink.Tuples {
		if tp.Str("id") == "" {
			t.Fatal("malformed join output")
		}
	}
}

// TestRunChanRepeatable: the channel executor must produce the same multiset
// of results across runs (per-box sequential processing).
func TestRunChanRepeatable(t *testing.T) {
	run := func() int {
		s := NewSchema("v")
		g := NewGraph()
		src := g.AddBox(NewFilter("keep", func(t *Tuple) bool { return int(t.Float("v"))%3 != 0 }))
		agg := g.AddBox(NewWindow("w", WindowSpec{Count: 4}, func(win []*Tuple, end Time, emit Emit) {
			var sum float64
			for _, tp := range win {
				sum += tp.Float("v")
			}
			emit(Derive(s, end, sum))
		}))
		sink := &Collect{}
		sb := g.AddBox(sink)
		g.Connect(src, agg, 0)
		g.Connect(agg, sb, 0)
		runFinite(g, 4, func(inject func(*Box, int, *Tuple)) {
			for i := 0; i < 100; i++ {
				inject(src, 0, NewTuple(s, Time(i), float64(i)))
			}
		})
		var total int
		for _, tp := range sink.Tuples {
			total += int(tp.Float("v"))
		}
		return total
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Errorf("channel execution not repeatable: %d vs %d", a, b)
	}
}
