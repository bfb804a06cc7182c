package stream

import (
	"fmt"
	"strconv"
	"testing"
)

// shardedIdentityGraph wires src -> Partition -> P stateless shards ->
// SeqMerge -> sink with the given per-shard inner operator factory.
func shardedIdentityGraph(p int, spec PartitionSpec, mkInner func(i int) Operator) (*Graph, *Box, *Collect) {
	g := NewGraph()
	src := g.AddBox(NewSelect("src", func(t *Tuple) *Tuple { return t }))
	part := g.AddBox(NewPartition("part", p, spec))
	g.Connect(src, part, 0)
	merge := NewSeqMerge("merge", p)
	var shardBoxes []*Box
	for i := 0; i < p; i++ {
		sb := g.AddBox(NewStatelessShard(mkInner(i), i, p))
		g.Connect(part, sb, 0)
		shardBoxes = append(shardBoxes, sb)
	}
	mb := g.AddBox(merge)
	for i, sb := range shardBoxes {
		g.Connect(sb, mb, i)
	}
	sink := &Collect{}
	sb := g.AddBox(sink)
	g.Connect(mb, sb, 0)
	return g, src, sink
}

// TestSeqMergeRestoresOrder: a round-robin-sharded filter must deliver the
// surviving tuples in exact pre-partition order, under both executors, even
// though drops leave sequence holes.
func TestSeqMergeRestoresOrder(t *testing.T) {
	s := NewSchema("v")
	const n = 500
	mk := func(int) Operator {
		return NewFilter("keep", func(t *Tuple) bool { return int(t.Float("v"))%3 != 0 })
	}
	var want []float64
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			want = append(want, float64(i))
		}
	}
	check := func(name string, got []*Tuple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d tuples, want %d", name, len(got), len(want))
		}
		for i, tp := range got {
			if tp.Float("v") != want[i] {
				t.Fatalf("%s: position %d holds %v, want %v", name, i, tp.Float("v"), want[i])
			}
		}
	}
	for _, p := range []int{1, 2, 5} {
		g, src, sink := shardedIdentityGraph(p, PartitionSpec{Watermarks: true}, mk)
		for i := 0; i < n; i++ {
			g.Push(src, 0, NewTuple(s, Time(i), float64(i)))
		}
		g.Close()
		check(fmt.Sprintf("push P=%d", p), sink.Tuples)

		g, src, sink = shardedIdentityGraph(p, PartitionSpec{Watermarks: true}, mk)
		runFinite(g, 4, func(inject func(*Box, int, *Tuple)) {
			for i := 0; i < n; i++ {
				inject(src, 0, NewTuple(s, Time(i), float64(i)))
			}
		})
		check(fmt.Sprintf("chan P=%d", p), sink.Tuples)
	}
}

// TestPartitionKeyRouting: keyed tuples with equal keys land on the same
// shard; keyless tuples take the deterministic round-robin fallback and
// nothing panics.
func TestPartitionKeyRouting(t *testing.T) {
	s := NewSchema("k")
	const p = 4
	byShard := make([]map[string]bool, p)
	g := NewGraph()
	part := g.AddBox(NewPartition("part", p, PartitionSpec{
		Route: func(t *Tuple) (int, bool) {
			k := t.Str("k")
			if k == "" {
				return 0, false
			}
			v, _ := strconv.Atoi(k)
			return ShardOfKey(int64(v), p), true
		},
	}))
	for i := 0; i < p; i++ {
		i := i
		byShard[i] = map[string]bool{}
		sb := g.AddBox(&FuncOp{OpName: fmt.Sprintf("s%d", i), OnTuple: func(_ int, t *Tuple, _ Emit) {
			byShard[i][t.Str("k")] = true
		}})
		g.Connect(part, sb, 0)
	}
	for i := 0; i < 200; i++ {
		key := strconv.Itoa(i % 17)
		if i%5 == 0 {
			key = "" // keyless
		}
		g.Push(part, 0, NewTuple(s, Time(i), key))
	}
	owners := map[string]int{}
	for i, ks := range byShard {
		for k := range ks {
			if k == "" {
				continue
			}
			if prev, dup := owners[k]; dup {
				t.Errorf("key %q seen on shards %d and %d", k, prev, i)
			}
			owners[k] = i
		}
	}
	if len(owners) != 17 {
		t.Errorf("expected 17 distinct keys routed, saw %d", len(owners))
	}
	spread := 0
	for _, ks := range byShard {
		if ks[""] {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("keyless tuples should spread round-robin across shards, reached %d", spread)
	}
}

// TestExternalWindowMatchesClockDriven: an external window behind a
// single-shard partition must emit exactly the windows the self-clocked
// operator does, for tumbling, sliding, and count specs, straggler
// arrivals included.
func TestExternalWindowMatchesClockDriven(t *testing.T) {
	s := NewSchema("v")
	ts := []Time{1, 4, 9, 12, 2 /* straggler */, 19, 23, 21, 40, 41}
	specs := []WindowSpec{
		{Duration: 10},
		{Duration: 10, Slide: 5},
		{Duration: 6, Slide: 2},
		{Count: 3},
	}
	render := func(win []*Tuple, end Time) string {
		out := fmt.Sprintf("@%d[", end)
		for _, tp := range win {
			out += fmt.Sprintf(" %v", tp.Float("v"))
		}
		return out + " ]"
	}
	for _, spec := range specs {
		var ref []string
		refOp := NewWindow("ref", spec, func(win []*Tuple, end Time, _ Emit) {
			ref = append(ref, render(win, end))
		})
		for i, x := range ts {
			refOp.Process(0, NewTuple(s, x, float64(i)), nil)
		}
		refOp.Flush(nil)

		var got []string
		g := NewGraph()
		part := g.AddBox(NewPartition("part", 1, PartitionSpec{Clock: &spec}))
		ext := g.AddBox(NewExternalWindow("ext", spec, func(win []*Tuple, end Time, _ Emit) {
			got = append(got, render(win, end))
		}))
		g.Connect(part, ext, 0)
		for i, x := range ts {
			g.Push(part, 0, NewTuple(s, x, float64(i)))
		}
		g.Close()

		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("spec %+v: external windows diverge\nref: %v\ngot: %v", spec, ref, got)
		}
	}
}

// TestStatsReadableMidRun reads box stats concurrently with channel
// execution — the counters are atomics, so this must be race-clean (run
// under -race) and finish with conserved totals.
func TestStatsReadableMidRun(t *testing.T) {
	s := NewSchema("v")
	g := NewGraph()
	src := g.AddBox(NewSelect("src", func(t *Tuple) *Tuple { return t }))
	mid := g.AddBox(NewSelect("mid", func(t *Tuple) *Tuple { return t }))
	sink := &Collect{}
	sb := g.AddBox(sink)
	g.Connect(src, mid, 0)
	g.Connect(mid, sb, 0)

	const n = 5000
	done := make(chan struct{})
	var peak Stats
	go func() {
		defer close(done)
		for {
			st := mid.Stats()
			if st.In >= n {
				peak = st
				return
			}
		}
	}()
	runFinite(g, 8, func(inject func(*Box, int, *Tuple)) {
		for i := 0; i < n; i++ {
			inject(src, 0, NewTuple(s, Time(i), float64(i)))
		}
	})
	<-done
	if peak.In < n || mid.Stats().Out != n {
		t.Errorf("stats lost updates: peak=%+v final=%+v", peak, mid.Stats())
	}
	if len(sink.Tuples) != n {
		t.Errorf("sink got %d tuples, want %d", len(sink.Tuples), n)
	}
}

// TestRunChanBatchingConserves drives a diamond with more tuples than the
// aggregate channel capacity (batches of 32 through buffers of 2) to
// exercise the flush-before-block path; every tuple must arrive exactly
// once per branch.
func TestRunChanBatchingConserves(t *testing.T) {
	s := NewSchema("v")
	g := NewGraph()
	src := g.AddBox(NewSelect("src", func(t *Tuple) *Tuple { return t }))
	left := g.AddBox(NewSelect("left", func(t *Tuple) *Tuple { return t.WithFields(s, t.Float("v")*10) }))
	right := g.AddBox(NewSelect("right", func(t *Tuple) *Tuple { return t.WithFields(s, t.Float("v")+0.5) }))
	u := g.AddBox(NewUnion("merge"))
	sink := &Collect{}
	sb := g.AddBox(sink)
	g.Connect(src, left, 0)
	g.Connect(src, right, 0)
	g.Connect(left, u, 0)
	g.Connect(right, u, 1)
	g.Connect(u, sb, 0)

	const n = 10000
	runFinite(g, 2, func(inject func(*Box, int, *Tuple)) {
		for i := 0; i < n; i++ {
			inject(src, 0, NewTuple(s, Time(i), float64(i)))
		}
	})
	if len(sink.Tuples) != 2*n {
		t.Fatalf("diamond delivered %d tuples, want %d", len(sink.Tuples), 2*n)
	}
	seen := map[float64]int{}
	for _, tp := range sink.Tuples {
		seen[tp.Float("v")]++
	}
	for i := 0; i < n; i++ {
		if seen[float64(i)*10] != 1 || seen[float64(i)+0.5] != 1 {
			t.Fatalf("value %d not conserved", i)
		}
	}
}
