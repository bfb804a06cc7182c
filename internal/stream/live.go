package stream

import (
	"context"
	"time"
)

// This file is the channel executor's feeder: RunLiveOpts drives a graph
// from a Source without a drain-everything Close contract. The paper's
// deployments (tomography radar, RFID readers) are live feeds that never
// end, so results must reach consumers as windows close — not when some
// terminal Flush drains the graph. A finite trace is the special case of a
// source that is already closed (SliceSource). The latency hazards of the
// batched channel transport are handled here and in the idle hooks:
//
//   - The feeder flushes partial injection batches whenever the source
//     momentarily idles, so the last <batchSize tuples of a quiet stream
//     are never invisible downstream.
//   - Box goroutines already flush partial output batches when their input
//     momentarily drains; the Idle operator hook runs first, letting
//     partition boxes emit watermarks so order-restoring merges release
//     buffered tuples past filter-drop holes instead of stalling until the
//     every-64-tuple cadence (or end-of-stream).
//   - A periodic tick (FlushEvery) wakes every box as a backstop, bounding
//     output latency even for boxes whose input never quite drains.
//
// Shutdown is graceful: cancelling the context (or closing the source's
// channel) stops ingestion, drains everything in flight, flushes every box
// — open windows emit, exactly like Close — and returns.

// SourceTuple is one live injection: a data tuple bound for a box input
// port of the running graph.
type SourceTuple struct {
	Box  *Box
	Port int
	T    *Tuple
}

// Source feeds a live run. It is channel-shaped — rather than a blocking
// pull method — so the executor can flush partial batches exactly when the
// feed momentarily idles (a select with a default arm), which no blocking
// interface can express. Closing the channel ends the stream and drains the
// graph gracefully.
type Source interface {
	Tuples() <-chan SourceTuple
}

// ChanSource is the basic channel-backed Source.
type ChanSource chan SourceTuple

// Tuples implements Source.
func (c ChanSource) Tuples() <-chan SourceTuple { return c }

// SliceSource is how a finite trace runs on the channel executor: it
// returns a ChanSource pre-loaded with every tuple and already closed, so
// RunLiveOpts feeds the whole trace in full batches and then drains.
func SliceSource(sts []SourceTuple) Source {
	ch := make(ChanSource, len(sts))
	for _, st := range sts {
		ch <- st
	}
	close(ch)
	return ch
}

// liveRun bounds how many already-queued tuples the feeder takes from the
// source between two looks at the barrier and context channels: a few
// batches, so those checks cost a small fraction of a receive per tuple
// while a checkpoint barrier waits behind at most liveRun tuples.
const liveRun = 4 * batchSize

// DefaultFlushEvery is the idle-tick cadence used when LiveOptions gives a
// non-positive one.
const DefaultFlushEvery = 100 * time.Millisecond

// LiveOptions configures RunLiveOpts.
type LiveOptions struct {
	// Buffer is the per-box input channel capacity (<= 0 selects the
	// default).
	Buffer int
	// FlushEvery bounds output latency when the graph is quiet: every
	// interval the feeder wakes each box to run its idle flush.
	// Non-positive selects DefaultFlushEvery.
	FlushEvery time.Duration
	// Barriers, when non-nil, delivers quiesce requests to the running
	// graph. For each function received the executor stops feeding, flushes
	// its pending injections, waits until no tuple is queued or
	// mid-processing anywhere, invokes the function (checkpoints read
	// operator state here — every box is idle, so Snapshot is safe), then
	// resumes feeding. The function runs on the feeder goroutine.
	Barriers <-chan func()
	// BeforeFlush, when non-nil, runs once after the feed has ended and the
	// graph has quiesced, but before operators flush — open windows have not
	// yet emitted their final results. It is the final-checkpoint hook: a
	// snapshot taken here restores to a graph that still drains identically.
	BeforeFlush func()
}

// RunLiveOpts executes the graph with one goroutine per box connected by
// buffered channels of tuple batches, fed from src by a context-driven
// feeder. Tuples flow downstream as they arrive (partial batches flush on
// idle, watermarks release merges), alerts reach sinks as windows close,
// and nothing waits for a terminal Close.
//
// RunLiveOpts returns when the source's channel closes (end of stream) or
// ctx is cancelled; either way the graph drains gracefully — queued tuples
// are processed and every box flushes, so open windows emit their final
// results — and the graph is closed. The error is nil at end of stream,
// ctx.Err() on cancellation. It panics on a graph that is closed or already
// running.
func (g *Graph) RunLiveOpts(ctx context.Context, src Source, opts LiveOptions) error {
	flushEvery := opts.FlushEvery
	if flushEvery <= 0 {
		flushEvery = DefaultFlushEvery
	}
	r := g.startRun(opts.Buffer)
	f := r.newFeeder()
	in := src.Tuples()
	ticker := time.NewTicker(flushEvery)
	defer ticker.Stop()
	// barrier quiesces the graph and runs fn while every box is idle. The
	// feeder is the only external producer, so flushing its batches and
	// waiting out the inflight count is a complete quiescence proof.
	barrier := func(fn func()) {
		f.flush()
		r.quiesce()
		fn()
	}
	// drainPending consumes whatever the source already holds — on
	// cancellation, tuples the producer handed over before the cancel are
	// still processed, so shutdown never silently discards accepted input.
	drainPending := func() {
		for {
			select {
			case st, ok := <-in:
				if !ok {
					return
				}
				f.inject(st.Box, st.Port, st.T)
			default:
				return
			}
		}
	}
	var err error
loop:
	for {
		// Fast path: take a run of already-queued tuples with a
		// single-channel non-blocking receive, which costs far less than a
		// select over the tuple, barrier and context channels.
		n := 0
	run:
		for n < liveRun {
			select {
			case st, ok := <-in:
				if !ok {
					break loop
				}
				f.inject(st.Box, st.Port, st.T)
				n++
			default:
				break run
			}
		}
		if n == liveRun {
			// The source is still busy. Look at barriers and cancellation
			// once per run, so a barrier waits behind at most one run.
			select {
			case fn := <-opts.Barriers:
				barrier(fn)
			case <-ctx.Done():
				err = ctx.Err()
				drainPending()
				break loop
			default:
			}
			continue
		}
		// The source momentarily idled: flush partial injection batches
		// before blocking, so a quiet stream's tail is visible downstream
		// while we wait.
		f.flush()
		select {
		case st, ok := <-in:
			if !ok {
				break loop
			}
			f.inject(st.Box, st.Port, st.T)
		case fn := <-opts.Barriers:
			barrier(fn)
		case <-ctx.Done():
			err = ctx.Err()
			drainPending()
			break loop
		case <-ticker.C:
			r.tick()
		}
	}
	f.flush()
	if opts.BeforeFlush != nil {
		r.quiesce()
		opts.BeforeFlush()
	}
	r.finish()
	return err
}
