package stream

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// liveSchema is the test schema for live-execution tuples.
var liveSchema = NewSchema("v")

func liveTuple(ts Time, v int64) *Tuple { return NewTuple(liveSchema, ts, v) }

// recvTuples reads n tuples from out, failing the test if any takes longer
// than the deadline — the latency assertion of the continuous-execution
// tests.
func recvTuples(t *testing.T, out <-chan *Tuple, n int, within time.Duration, what string) []*Tuple {
	t.Helper()
	got := make([]*Tuple, 0, n)
	for len(got) < n {
		select {
		case tp := <-out:
			got = append(got, tp)
		case <-time.After(within):
			t.Fatalf("%s: got %d of %d tuples, then nothing for %v — live output is stalling",
				what, len(got), n, within)
		}
	}
	return got
}

// sinkTo builds a sink box forwarding every tuple to a channel.
func sinkTo(out chan *Tuple) *FuncOp {
	return &FuncOp{OpName: "sink", OnTuple: func(_ int, t *Tuple, _ Emit) { out <- t }}
}

// TestRunLiveDeliversWithoutClose pins the core continuous-execution
// contract: tuples fed by a live source reach the sink while the stream is
// still open. A feeder that flushed only at batchSize or end of stream
// would hold these five tuples back; the flush-on-idle must not.
func TestRunLiveDeliversWithoutClose(t *testing.T) {
	g := NewGraph()
	src := g.AddBox(NewSelect("id", func(t *Tuple) *Tuple { return t }))
	out := make(chan *Tuple, 64)
	sink := g.AddBox(sinkTo(out))
	g.Connect(src, sink, 0)

	ch := make(ChanSource, 64)
	done := make(chan error, 1)
	go func() {
		done <- g.RunLiveOpts(context.Background(), ch, LiveOptions{Buffer: 8, FlushEvery: 10 * time.Millisecond})
	}()

	for i := 0; i < 5; i++ {
		ch <- SourceTuple{Box: src, Port: 0, T: liveTuple(Time(i), int64(i))}
	}
	got := recvTuples(t, out, 5, 5*time.Second, "open-stream delivery")
	for i, tp := range got {
		if tp.Fields[0].(int64) != int64(i) {
			t.Errorf("tuple %d: got v=%v, want %d", i, tp.Fields[0], i)
		}
	}

	close(ch)
	if err := <-done; err != nil {
		t.Fatalf("RunLiveOpts returned %v at end of stream, want nil", err)
	}
	if !g.Closed() {
		t.Error("graph should be closed after RunLiveOpts returns")
	}
}

// TestRunLiveSparseFilteredShardLatency is the latency regression test of
// the two transport bugs: a filter-heavy sharded stage fed a sparse live
// stream must deliver every surviving tuple promptly, with no Close. The
// survivors all land on one shard, so the order-restoring merge can only
// release them via watermarks — which used to arrive every 64 tuples or at
// Flush. The partitioner's idle watermark (plus the live feeder's
// flush-on-idle through the 32-tuple batch transport) must release them as
// soon as the stream goes quiet.
func TestRunLiveSparseFilteredShardLatency(t *testing.T) {
	const P = 2
	g := NewGraph()
	src := g.AddBox(NewSelect("id", func(t *Tuple) *Tuple { return t }))
	part := g.AddBox(NewPartition("⇉", P, PartitionSpec{Watermarks: true}))
	g.Connect(src, part, 0)
	keepEven := func(t *Tuple) bool { return t.Fields[0].(int64)%2 == 0 }
	merge := g.AddBox(NewSeqMerge("⋈seq", P))
	for i := 0; i < P; i++ {
		sh := g.AddBox(NewStatelessShard(NewFilter("σ(even)", keepEven), i, P))
		g.Connect(part, sh, 0)
		g.Connect(sh, merge, i)
	}
	out := make(chan *Tuple, 64)
	sink := g.AddBox(sinkTo(out))
	g.Connect(merge, sink, 0)

	ch := make(ChanSource) // unbuffered: a genuinely sparse trickle
	done := make(chan error, 1)
	go func() {
		done <- g.RunLiveOpts(context.Background(), ch, LiveOptions{Buffer: 8, FlushEvery: 20 * time.Millisecond})
	}()

	// 10 tuples, far below both the 64-tuple watermark cadence and the
	// 32-tuple batch size. Round-robin sends the even (surviving) tuples to
	// shard 0 and the odd (dropped) ones to shard 1, so the merge's port 1
	// never sees data — only watermarks can release port 0.
	for i := 0; i < 10; i++ {
		ch <- SourceTuple{Box: src, Port: 0, T: liveTuple(Time(i), int64(i))}
	}
	got := recvTuples(t, out, 5, 5*time.Second, "sparse filtered shard stage")
	for i, tp := range got {
		if want := int64(2 * i); tp.Fields[0].(int64) != want {
			t.Errorf("survivor %d: got v=%v, want %d (merge must restore pre-partition order)", i, tp.Fields[0], want)
		}
	}

	// A second sparse burst must release just as promptly (the idle
	// watermark has to keep firing, not just once).
	for i := 10; i < 14; i++ {
		ch <- SourceTuple{Box: src, Port: 0, T: liveTuple(Time(i), int64(i))}
	}
	recvTuples(t, out, 2, 5*time.Second, "second sparse burst")

	close(ch)
	if err := <-done; err != nil {
		t.Fatalf("RunLiveOpts: %v", err)
	}
	if n := len(out); n != 0 {
		t.Errorf("drain emitted %d unexpected extra tuples", n)
	}
}

// TestRunLiveKeylessRoundRobin pins continuous keyed partitioning with
// keyless tuples: routes fall back to round-robin (never panicking, never
// deduped into a keyed shard), and the merged stream still releases live.
func TestRunLiveKeylessRoundRobin(t *testing.T) {
	const P = 3
	g := NewGraph()
	src := g.AddBox(NewSelect("id", func(t *Tuple) *Tuple { return t }))
	// Route even values by hash; odd values are "keyless" (ok = false).
	spec := PartitionSpec{
		Watermarks: true,
		Route: func(t *Tuple) (int, bool) {
			v := t.Fields[0].(int64)
			if v%2 == 0 {
				return ShardOfKey(v, P), true
			}
			return 0, false
		},
	}
	part := g.AddBox(NewPartition("⇉", P, spec))
	g.Connect(src, part, 0)
	merge := g.AddBox(NewSeqMerge("⋈seq", P))
	for i := 0; i < P; i++ {
		sh := g.AddBox(NewStatelessShard(NewSelect("id", func(t *Tuple) *Tuple { return t }), i, P))
		g.Connect(part, sh, 0)
		g.Connect(sh, merge, i)
	}
	out := make(chan *Tuple, 64)
	sink := g.AddBox(sinkTo(out))
	g.Connect(merge, sink, 0)

	ch := make(ChanSource)
	done := make(chan error, 1)
	go func() {
		done <- g.RunLiveOpts(context.Background(), ch, LiveOptions{Buffer: 8, FlushEvery: 20 * time.Millisecond})
	}()

	const N = 11
	for i := 0; i < N; i++ {
		ch <- SourceTuple{Box: src, Port: 0, T: liveTuple(Time(i), int64(i))}
	}
	got := recvTuples(t, out, N, 5*time.Second, "keyless round-robin stage")
	for i, tp := range got {
		if tp.Fields[0].(int64) != int64(i) {
			t.Errorf("position %d: got v=%v, want %d", i, tp.Fields[0], i)
		}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatalf("RunLiveOpts: %v", err)
	}
}

// TestRunLiveCancelDrainsGracefully: cancelling the context must stop
// ingestion but still flush the graph — an open window emits its buffered
// tuples on the way down, exactly like Close.
func TestRunLiveCancelDrainsGracefully(t *testing.T) {
	g := NewGraph()
	win := g.AddBox(NewWindow("w", WindowSpec{Duration: 1000}, func(window []*Tuple, end Time, emit Emit) {
		for _, tp := range window {
			emit(tp)
		}
	}))
	out := make(chan *Tuple, 64)
	sink := g.AddBox(sinkTo(out))
	g.Connect(win, sink, 0)

	ctx, cancel := context.WithCancel(context.Background())
	ch := make(ChanSource, 8)
	done := make(chan error, 1)
	go func() { done <- g.RunLiveOpts(ctx, ch, LiveOptions{Buffer: 8, FlushEvery: 10 * time.Millisecond}) }()

	// Three tuples inside one still-open window.
	for i := 0; i < 3; i++ {
		ch <- SourceTuple{Box: win, Port: 0, T: liveTuple(Time(i*100), int64(i))}
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("RunLiveOpts returned %v, want context.Canceled", err)
	}
	if got := len(out); got != 3 {
		t.Fatalf("graceful drain flushed %d tuples, want 3 (open window must emit on shutdown)", got)
	}
}

// TestPartitionIdleWatermark pins the Idle hook unit behavior: a watermark
// covering everything routed so far is emitted exactly when there is
// something new to cover.
func TestPartitionIdleWatermark(t *testing.T) {
	op := NewPartition("⇉", 2, PartitionSpec{Watermarks: true})
	var ctl []*control
	var data int
	emit := func(tp *Tuple) {
		if c, ok := controlOf(tp); ok {
			ctl = append(ctl, c)
			return
		}
		data++
	}
	idle := op.(IdleOp)

	idle.Idle(emit)
	if len(ctl) != 0 {
		t.Fatalf("idle with nothing routed emitted %d controls, want 0", len(ctl))
	}
	for i := 0; i < 3; i++ {
		op.Process(0, liveTuple(Time(i), int64(i)), emit)
	}
	idle.Idle(emit)
	if len(ctl) != 1 || ctl[0].kind != ctlWatermark || ctl[0].seq != 3 {
		t.Fatalf("after 3 tuples + idle: controls %+v, want one watermark at seq 3", ctl)
	}
	// Nothing new since the last watermark: stay quiet.
	idle.Idle(emit)
	if len(ctl) != 1 {
		t.Fatalf("repeated idle emitted %d controls, want still 1", len(ctl))
	}
	// New data re-arms the watermark.
	op.Process(0, liveTuple(3, 3), emit)
	idle.Idle(emit)
	if len(ctl) != 2 || ctl[1].seq != 4 {
		t.Fatalf("after more data + idle: controls %+v, want second watermark at seq 4", ctl)
	}
	if data != 4 {
		t.Fatalf("routed %d data tuples, want 4", data)
	}
}

// TestSeqMergeStragglerAfterWatermark: a tuple whose sequence is below
// another port's watermark must still wait for its own port's promise —
// per-channel FIFO is all a watermark guarantees — and release, in order,
// once that promise arrives.
func TestSeqMergeStragglerAfterWatermark(t *testing.T) {
	m := NewSeqMerge("⋈seq", 2)
	var got []*Tuple
	emit := func(tp *Tuple) { got = append(got, tp) }

	// Port 1 is far ahead: its watermark already covers sequence 10.
	m.Process(1, newControlTuple(ctlWatermark, 0, 10), emit)
	// Port 0's straggler (sequence 3) arrives after that watermark.
	lag := liveTuple(0, 3)
	lag.Seq = 3
	m.Process(0, lag, emit)
	if len(got) != 0 {
		t.Fatalf("straggler released by a foreign port's watermark — per-channel FIFO violated (%d tuples out)", len(got))
	}
	// Its own port's watermark releases it.
	m.Process(0, newControlTuple(ctlWatermark, 0, 10), emit)
	if len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("after own-port watermark: got %d tuples (want the seq-3 straggler)", len(got))
	}
	// Later data on port 0 with port 1 still empty: released by the
	// standing watermarks once port 0's next watermark covers it.
	next := liveTuple(0, 12)
	next.Seq = 12
	m.Process(0, next, emit)
	m.Process(0, newControlTuple(ctlWatermark, 0, 13), emit)
	if len(got) != 1 {
		t.Fatalf("seq 12 released although port 1's watermark only covers 10 (%d out)", len(got))
	}
	m.Process(1, newControlTuple(ctlWatermark, 0, 13), emit)
	if len(got) != 2 || got[1].Seq != 12 {
		t.Fatalf("after both watermarks cover 13: %d tuples out, want 2", len(got))
	}
}

// TestRunLiveBarrierUnderSaturation: a producer keeps the source non-empty
// for the whole test, so the feeder never idles; each checkpoint barrier
// must still run before the source ends, behind at most one run (liveRun)
// of tuples taken after it was posted, and on a quiescent graph — every
// tuple taken from the source has been processed. The box spends a few
// microseconds per tuple, so the feeder waits on the box, not the producer,
// and the source stays full.
func TestRunLiveBarrierUnderSaturation(t *testing.T) {
	g := NewGraph()
	box := g.AddBox(&FuncOp{OpName: "count", OnTuple: func(int, *Tuple, Emit) {
		for start := time.Now(); time.Since(start) < 5*time.Microsecond; {
		}
	}})

	// The producer sends under mu, so sent-len(ch) is exactly the number of
	// tuples the feeder has taken.
	ch := make(ChanSource, 4*liveRun)
	var mu sync.Mutex
	sent := 0
	taken := func() int {
		mu.Lock()
		defer mu.Unlock()
		return sent - len(ch)
	}
	stop := make(chan struct{})
	go func() {
		tp := liveTuple(0, 1)
		for {
			select {
			case <-stop:
				close(ch)
				return
			default:
			}
			mu.Lock()
			select {
			case ch <- SourceTuple{Box: box, T: tp}:
				sent++
			default:
			}
			full := len(ch) == cap(ch)
			mu.Unlock()
			if full {
				runtime.Gosched()
			}
		}
	}()

	barriers := make(chan func(), 1)
	done := make(chan error, 1)
	go func() { done <- g.RunLiveOpts(context.Background(), ch, LiveOptions{Buffer: 1, Barriers: barriers}) }()
	for taken() < 4*liveRun {
		runtime.Gosched()
	}
	for round := 0; round < 20; round++ {
		ran := make(chan [2]int, 1)
		barriers <- func() { ran <- [2]int{taken(), int(box.Stats().In)} }
		before := taken()
		select {
		case got := <-ran:
			if at, processed := got[0], got[1]; at-before > liveRun {
				t.Fatalf("round %d: barrier ran %d tuples after it was posted, want at most %d", round, at-before, liveRun)
			} else if processed != at {
				t.Fatalf("round %d: barrier ran with %d of %d taken tuples processed", round, processed, at)
			}
		case err := <-done:
			t.Fatalf("round %d: run ended (%v) before the barrier ran", round, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: barrier starved by a saturated source", round)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunLiveOpts: %v", err)
	}
	if in := int(box.Stats().In); in != sent {
		t.Fatalf("box processed %d of %d tuples", in, sent)
	}
}

// TestRunLiveFeederAllocs pins the feeder's allocations per injected batch:
// RunLiveOpts of N tuples into a one-box graph, differenced between two N
// so the run's fixed cost cancels. Every batch here fills, so each opens
// at its full length, one allocation per batch; it was 6.0 while batches
// grew by appending from empty. Skipped under -race, whose instrumentation
// allocates.
func TestRunLiveFeederAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tp := liveTuple(0, 1)
	run := func(batches int) float64 {
		sts := make([]SourceTuple, batches*batchSize)
		return testing.AllocsPerRun(10, func() {
			g := NewGraph()
			box := g.AddBox(&FuncOp{OpName: "sink", OnTuple: func(int, *Tuple, Emit) {}})
			for i := range sts {
				sts[i] = SourceTuple{Box: box, T: tp}
			}
			if err := g.RunLiveOpts(context.Background(), SliceSource(sts), LiveOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const lo, hi = 64, 192
	perBatch := (run(hi) - run(lo)) / (hi - lo)
	t.Logf("%.3f allocs per injected batch", perBatch)
	if perBatch > 1.0 {
		t.Fatalf("%.3f allocs per injected batch, budget 1.0", perBatch)
	}
}
