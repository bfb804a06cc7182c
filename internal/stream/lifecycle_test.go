package stream

import (
	"context"
	"testing"
)

// The graph lifecycle used to be undefined after Close: a second Close
// re-flushed every operator (double-sending punctuations and re-draining
// windows), and Push after Close silently admitted tuples into drained
// window state. These tests pin the fixed contract: Close is idempotent —
// including after RunLiveOpts, which flushes itself — and
// Push-after-Close fails loudly.

// countingOp records Process/Flush calls.
type countingOp struct {
	name      string
	processed int
	flushed   int
}

func (o *countingOp) Name() string                    { return o.name }
func (o *countingOp) Process(_ int, t *Tuple, e Emit) { o.processed++; e(t) }
func (o *countingOp) Flush(Emit)                      { o.flushed++ }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestCloseIsIdempotent(t *testing.T) {
	g := NewGraph()
	op := &countingOp{name: "op"}
	b := g.AddBox(op)
	g.Push(b, 0, liveTuple(0, 1))
	g.Close()
	g.Close()
	g.Close()
	if op.flushed != 1 {
		t.Fatalf("operator flushed %d times across 3 Closes, want exactly 1", op.flushed)
	}
	if !g.Closed() {
		t.Fatal("graph not marked closed")
	}
}

// TestCloseIdempotentNoDoublePunctuation drives the real failure mode: a
// partitioned stage whose partitioner broadcasts close punctuations and
// final watermarks on Flush. A second Close used to replay them, making
// the merge finalize phantom windows.
func TestCloseIdempotentNoDoublePunctuation(t *testing.T) {
	g := NewGraph()
	part := g.AddBox(NewPartition("⇉", 2, PartitionSpec{Watermarks: true}))
	var controls int
	sink := g.AddBox(&FuncOp{OpName: "sink", OnTuple: func(_ int, tp *Tuple, _ Emit) {
		if IsControl(tp) {
			controls++
		}
	}})
	g.Connect(part, sink, 0)
	g.Connect(part, sink, 0) // both "shards" feed the same counter

	g.Push(part, 0, liveTuple(0, 1))
	g.Close()
	first := controls
	if first == 0 {
		t.Fatal("flush broadcast no punctuations; test is vacuous")
	}
	g.Close()
	if controls != first {
		t.Fatalf("second Close re-sent punctuations: %d -> %d", first, controls)
	}
}

func TestPushAfterClosePanics(t *testing.T) {
	g := NewGraph()
	b := g.AddBox(&countingOp{name: "op"})
	g.Push(b, 0, liveTuple(0, 1))
	g.Close()
	mustPanic(t, "Push after Close", func() { g.Push(b, 0, liveTuple(1, 2)) })
}

// TestLifecycleAfterRunChan pins the lifecycle around the channel
// executor's finite-trace run: RunLiveOpts flushes once and closes the
// graph, Close afterwards is a no-op, and Push or a second run panics.
func TestLifecycleAfterRunChan(t *testing.T) {
	g := NewGraph()
	op := &countingOp{name: "op"}
	b := g.AddBox(op)
	src := SliceSource([]SourceTuple{{Box: b, Port: 0, T: liveTuple(0, 1)}})
	if err := g.RunLiveOpts(context.Background(), src, LiveOptions{Buffer: 4}); err != nil {
		t.Fatalf("RunLiveOpts: %v", err)
	}
	if op.processed != 1 || op.flushed != 1 {
		t.Fatalf("RunLiveOpts processed %d and flushed %d times, want 1 and 1", op.processed, op.flushed)
	}
	if !g.Closed() {
		t.Fatal("graph not closed after RunLiveOpts")
	}
	// Close after the run must be a no-op, not a second flush.
	g.Close()
	if op.flushed != 1 {
		t.Fatalf("Close after RunLiveOpts re-flushed (%d)", op.flushed)
	}
	mustPanic(t, "Push after RunLiveOpts", func() { g.Push(b, 0, liveTuple(1, 2)) })
	mustPanic(t, "second RunLiveOpts", func() {
		g.RunLiveOpts(context.Background(), SliceSource(nil), LiveOptions{})
	})
}

func TestRunChanAfterClosePanics(t *testing.T) {
	g := NewGraph()
	g.AddBox(&countingOp{name: "op"})
	g.Close()
	mustPanic(t, "RunLiveOpts on closed graph", func() {
		g.RunLiveOpts(context.Background(), SliceSource(nil), LiveOptions{})
	})
}
