package stream

import (
	"fmt"
	"math"
)

// WindowSpec describes a window policy. Exactly one of Count or Duration
// must be positive.
type WindowSpec struct {
	// Count > 0 selects a tumbling count window of that many tuples (the
	// Table 2 workload: tumbling windows of 100 tuples).
	Count int
	// Duration > 0 selects a time window of that many Time units.
	Duration Time
	// Sliding, for time windows, emits at every Slide step while retaining
	// Duration of history ([Range x seconds] with periodic Rstream
	// evaluation). Zero means tumbling.
	Slide Time
}

// Validate panics on contradictory specs; used by operator constructors.
func (w WindowSpec) Validate() {
	if (w.Count > 0) == (w.Duration > 0) {
		panic(fmt.Sprintf("stream: window must set exactly one of Count/Duration: %+v", w))
	}
	if w.Slide < 0 || (w.Count > 0 && w.Slide != 0) {
		panic("stream: Slide applies only to time windows")
	}
}

// WindowFunc folds a full window of tuples into zero or more output tuples.
// The window-end timestamp is provided for output stamping (Rstream
// semantics: results carry the instant the window closed).
type WindowFunc func(window []*Tuple, end Time, emit Emit)

// step is a time window's boundary step: the slide, or the whole duration
// for a tumbling window.
func (w WindowSpec) step() Time {
	if w.Slide > 0 {
		return w.Slide
	}
	return w.Duration
}

// boundaryOverflows reports whether a time window whose current window
// starts at winStart has its next boundary past the Time range. A clock
// restored there would wrap that boundary negative, and its close loop
// would never admit the next tuple.
func (w WindowSpec) boundaryOverflows(winStart Time) bool {
	return winStart > math.MaxInt64-w.step()
}

// windowClock is the window-lifecycle decision logic of windowOp, factored
// out so a Partition box can replicate the exact close sequence of the
// unsharded operator and broadcast it to shard instances as punctuations.
// It holds no tuples — only the boundary state — and its decisions depend
// only on the observed timestamp sequence, which is the same stream the
// unsharded operator would see.
type windowClock struct {
	spec     WindowSpec
	started  bool
	winStart Time
	fill     int  // count-window fill since the last close
	buffered bool // tumbling: any tuple admitted since the last close
	maxTS    Time // sliding: max timestamp ever observed (retention bound)
	lastTS   Time
}

// observe records one arriving tuple timestamp, appending to ends the
// window ends that close BEFORE the tuple is admitted, and reporting via
// post whether a close fires immediately AFTER admitting it (count windows
// close on their Nth tuple, with that tuple's timestamp as the end).
func (c *windowClock) observe(ts Time, ends []Time) (pre []Time, post bool) {
	c.lastTS = ts
	if c.spec.Count > 0 {
		c.fill++
		if c.fill >= c.spec.Count {
			c.fill = 0
			return ends, true
		}
		return ends, false
	}
	if !c.started {
		c.started = true
		c.winStart = ts
		c.maxTS = ts
	}
	if ts > c.maxTS {
		c.maxTS = ts
	}
	step := c.spec.step()
	for ts >= c.winStart+step {
		end := c.winStart + step
		ends = append(ends, end)
		c.winStart = end
		c.buffered = false
	}
	c.buffered = true
	return ends, false
}

// flushCloses appends the window ends the operator's Flush would close at
// end-of-stream: the partial tumbling/count window if any tuples are
// buffered, or — for sliding windows — every slide until the retained
// buffer drains (the NewWindow Flush drain loop).
func (c *windowClock) flushCloses(ends []Time) []Time {
	if c.spec.Count > 0 {
		if c.fill > 0 {
			ends = append(ends, c.lastTS)
			c.fill = 0
		}
		return ends
	}
	if !c.started {
		return ends
	}
	if c.spec.Slide == 0 {
		if c.buffered {
			ends = append(ends, c.winStart+c.spec.Duration)
			c.buffered = false
		}
		return ends
	}
	// Sliding: a tuple with timestamp T stays resident until a slide's
	// eviction horizon end−Duration passes it, so the buffer is non-empty
	// exactly while maxTS >= winStart+Slide−Duration. Each close in that
	// range emits a non-empty window (the maxTS tuple survives its own
	// eviction check); the first all-evicted slide is never emitted —
	// matching the NewWindow Flush loop tuple for tuple.
	if !c.buffered {
		return ends
	}
	for c.maxTS >= c.winStart+c.spec.Slide-c.spec.Duration {
		end := c.winStart + c.spec.Slide
		ends = append(ends, end)
		c.winStart = end
	}
	c.buffered = false
	return ends
}

// windowOp buffers tuples per the spec and applies fn when windows close.
// Closes are decided by its own windowClock, or — in external mode, used by
// shard instances behind a Partition box — by close punctuations broadcast
// from the partitioner, so every shard's window lifecycle matches the
// unsharded operator's exactly (stragglers land in the same window, flush
// drains the same slides) even though each shard holds only a subset of the
// tuples.
type windowOp struct {
	name     string
	spec     WindowSpec
	fn       WindowFunc
	external bool

	clock   windowClock
	buf     []*Tuple
	scratch []Time
}

// NewWindow creates a windowing operator. For count windows fn fires every
// Count tuples; for tumbling time windows it fires when a tuple at or past
// the boundary arrives (and on Flush); sliding time windows fire every Slide
// with the tuples inside [end-Duration, end).
func NewWindow(name string, spec WindowSpec, fn WindowFunc) Operator {
	spec.Validate()
	return &windowOp{name: name, spec: spec, fn: fn, clock: windowClock{spec: spec}}
}

// NewExternalWindow creates a windowing operator whose closes are driven
// entirely by close punctuations (CloseTuple) instead of its own clock —
// the shard-instance form used behind a Partition box, which replicates the
// unsharded close sequence and broadcasts it. Process buffers data tuples;
// a close punctuation emits the due window and is forwarded downstream
// (ordered Merge boxes count one forwarded close per shard per window).
// Flush is a no-op: the partitioner's Flush broadcasts the final closes.
func NewExternalWindow(name string, spec WindowSpec, fn WindowFunc) Operator {
	spec.Validate()
	return &windowOp{name: name, spec: spec, fn: fn, external: true}
}

func (o *windowOp) Name() string { return o.name }

func (o *windowOp) Process(_ int, t *Tuple, emit Emit) {
	if o.external {
		if c, ok := controlOf(t); ok {
			if c.kind == ctlClose {
				o.closeWindow(c.end, emit)
			}
			emit(t) // forward the punctuation to the merge
			return
		}
		o.buf = append(o.buf, t)
		return
	}
	var post bool
	o.scratch, post = o.clock.observe(t.TS, o.scratch[:0])
	for _, end := range o.scratch {
		o.closeWindow(end, emit)
	}
	o.buf = append(o.buf, t)
	if post {
		o.closeWindow(t.TS, emit)
	}
}

// closeWindow emits the window ending at end. Tumbling and count windows
// hand over the whole buffer; sliding windows evict and emit the retained
// range [end-Duration, end).
func (o *windowOp) closeWindow(end Time, emit Emit) {
	if o.spec.Count > 0 || o.spec.Slide == 0 {
		o.fn(o.buf, end, emit)
		o.buf = o.buf[:0]
		return
	}
	lo := end - o.spec.Duration
	// Evict tuples older than the range.
	keep := o.buf[:0]
	var window []*Tuple
	for _, t := range o.buf {
		if t.TS >= lo {
			keep = append(keep, t)
			if t.TS < end {
				window = append(window, t)
			}
		}
	}
	o.buf = keep
	o.fn(window, end, emit)
}

func (o *windowOp) Flush(emit Emit) {
	if o.external {
		return // the partitioner's Flush broadcasts the final closes
	}
	o.scratch = o.clock.flushCloses(o.scratch[:0])
	for _, end := range o.scratch {
		o.closeWindow(end, emit)
	}
}
