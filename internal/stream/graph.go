package stream

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Box is a node in the box-arrow diagram: an operator plus its outgoing arrows.
type Box struct {
	Op Operator

	id   int
	outs []arrow
	// Traffic counters are atomics: under RunLiveOpts each box increments
	// its own counters from its goroutine while Stats() may be read from any
	// other goroutine (monitoring, examples printing per-shard stats).
	statIn, statOut atomic.Uint64
	emit            Emit // prebuilt synchronous emit; one closure per box, not per tuple
}

// arrow connects a box output to a (box, port) input.
type arrow struct {
	to   *Box
	port int
}

// Stats counts a box's traffic. (Per-tuple wall-clock timing was measured
// here once; two time.Now calls per tuple per box cost more than most
// operators' Process bodies, so stats are counters only.)
type Stats struct {
	In, Out uint64
}

// Stats returns a snapshot of the box's counters; safe to call while the
// graph is executing on RunLiveOpts.
func (b *Box) Stats() Stats {
	return Stats{In: b.statIn.Load(), Out: b.statOut.Load()}
}

// SoleConsumer returns the single (box, port) this box feeds, if it has
// exactly one outgoing arrow — compilers use it to inject tuples past pure
// fan-out boxes instead of paying a dispatch per tuple for an identity hop.
func (b *Box) SoleConsumer() (*Box, int, bool) {
	if len(b.outs) == 1 {
		return b.outs[0].to, b.outs[0].port, true
	}
	return nil, 0, false
}

// deliverTo resolves a routed tuple to a single arrow index, or -1 for
// broadcast. Partition boxes stamp a route on their outputs; the engine
// consumes (and clears) it at dispatch so a pass-through shard re-emitting
// the same tuple over its single arrow is unaffected.
func (b *Box) deliverTo(out *Tuple) int {
	if r := int(out.route); r > 0 && r <= len(b.outs) {
		out.route = 0
		return r - 1
	}
	return -1
}

// Graph lifecycle states. A graph is single-use: it accepts tuples while
// open, runs at most one channel execution, and once closed stays closed.
const (
	stateOpen int32 = iota
	stateRunning
	stateClosing
	stateClosed
)

// Graph is a box-arrow diagram (§3, Figure 2) with two executors. Build it
// with AddBox and Connect, then either feed tuples synchronously with Push
// and finish with Close, or hand it a Source and call RunLiveOpts, which
// runs one goroutine per box connected by channels — the paper's dataflow
// reading — and is equivalent to the synchronous path (tests assert this).
// A finite trace runs on RunLiveOpts as a SliceSource.
//
// A graph is single-use. Close is idempotent (the first call flushes, later
// calls are no-ops — this includes Close after RunLiveOpts, which flushes
// itself), and Push after the graph has closed panics with a clear error
// instead of silently corrupting window state.
type Graph struct {
	boxes []*Box
	// state is atomic so lifecycle checks are race-free against monitoring
	// goroutines; transitions themselves happen from the owning goroutine.
	state atomic.Int32
	// run points at the in-flight channel execution, for queue-depth
	// monitoring (/statsz); nil outside RunLiveOpts.
	run atomic.Pointer[chanRun]
}

// NewGraph creates an empty dataflow graph.
func NewGraph() *Graph { return &Graph{} }

// AddBox registers an operator and returns its box.
func (g *Graph) AddBox(op Operator) *Box {
	b := &Box{Op: op, id: len(g.boxes)}
	b.emit = func(out *Tuple) {
		b.statOut.Add(1)
		if i := b.deliverTo(out); i >= 0 {
			a := b.outs[i]
			g.push(a.to, a.port, out)
			return
		}
		for _, a := range b.outs {
			g.push(a.to, a.port, out)
		}
	}
	g.boxes = append(g.boxes, b)
	return b
}

// Boxes returns the graph's boxes in insertion order (for stats reporting
// and diagram inspection).
func (g *Graph) Boxes() []*Box { return g.boxes }

// Connect draws an arrow from box src to input port of box dst.
func (g *Graph) Connect(src, dst *Box, port int) {
	src.outs = append(src.outs, arrow{to: dst, port: port})
}

// Push injects a tuple into a box input synchronously; processing cascades
// depth-first through the arrows. Pushing into a graph that is not open
// panics: a closed graph's windows have already drained (admitting more
// tuples would corrupt their state silently), and a running channel
// execution owns the operators from its own goroutines.
func (g *Graph) Push(b *Box, port int, t *Tuple) {
	if g.state.Load() != stateOpen {
		panic("stream: Push on a closed or running graph — compile a fresh graph for a new run")
	}
	g.push(b, port, t)
}

// push is Push without the lifecycle check — internal cascades (box emits,
// the Close flush) are part of the run that is ending and must not re-check.
func (g *Graph) push(b *Box, port int, t *Tuple) {
	b.statIn.Add(1)
	b.Op.Process(port, t, b.emit)
}

// Close flushes every box in insertion order (sources first), cascading any
// emitted tuples. Close is idempotent: only the first call flushes, so a
// second Close cannot double-send punctuations or re-drain windows. After
// RunLiveOpts (which flushes as part of its own shutdown) Close is a no-op.
func (g *Graph) Close() {
	if !g.state.CompareAndSwap(stateOpen, stateClosing) {
		return
	}
	for _, b := range g.boxes {
		b.Op.Flush(b.emit)
	}
	g.state.Store(stateClosed)
}

// Closed reports whether the graph has finished (Close, or a completed
// RunLiveOpts).
func (g *Graph) Closed() bool { return g.state.Load() == stateClosed }

// Describe renders the diagram topology.
func (g *Graph) Describe() string {
	s := ""
	for _, b := range g.boxes {
		s += fmt.Sprintf("[%d] %s ->", b.id, b.Op.Name())
		for _, a := range b.outs {
			s += fmt.Sprintf(" [%d]:%d", a.to.id, a.port)
		}
		s += "\n"
	}
	return s
}

// batch carries a run of tuples for one input port through a channel —
// amortizing the per-send synchronization that dominated the channel
// executor when every tuple was its own send.
type batch struct {
	port int
	ts   []*Tuple
}

// tickPort marks a wakeup batch: it carries no tuples and exists only to
// rouse an otherwise-blocked box goroutine so it runs its idle flush
// (operator Idle hook + partial-batch flush). The feeder broadcasts
// ticks periodically so a quiet graph still bounds its output latency.
const tickPort = -1

// batchSize caps how many tuples accumulate per destination before the
// producer flushes the batch downstream.
const batchSize = 32

// batcher accumulates a producer's pending batches, one per outgoing arrow
// (or per injection target for the feeder).
type batcher struct {
	r *chanRun
	// pending[i] is the open batch for arrow/target i.
	pending [][]*Tuple
	// sizes[i] is the length of the last batch sent on arrow/target i, the
	// capacity its next batch opens at.
	sizes []int
}

// add appends t to the open batch for arrow/target i into box to's input,
// flushing it when full. Into a box with a bounded input (BoundedInputOp), a
// window close also ends the batch, so a batch there holds about one window
// and the bound counts windows: what the window's merge needs moves on at
// once instead of waiting for a batch that fills only windows later.
//
// The consumer owns a sent slice, so every batch is a fresh one. It opens
// at the length of the arrow's previous batch (batchSize for the first): a
// busy arrow's batch fills in one allocation where growing it from empty
// cost six, and an arrow flushed on every idle, a tuple or two at a time,
// does not allocate a full batch for each.
func (w *batcher) add(to, port, i int, t *Tuple) {
	if w.pending[i] == nil {
		w.pending[i] = make([]*Tuple, 0, cmp.Or(w.sizes[i], batchSize))
	}
	w.pending[i] = append(w.pending[i], t)
	full := len(w.pending[i]) >= batchSize
	if !full && w.r.bounded[to] {
		_, full = WindowCloseOf(t)
	}
	if full {
		w.send(to, port, i)
	}
}

// send hands arrow/target i's open batch to box to's input port.
func (w *batcher) send(to, port, i int) {
	w.r.inflight.Add(1)
	w.r.chans[to] <- batch{port: port, ts: w.pending[i]}
	w.sizes[i] = len(w.pending[i])
	w.pending[i] = nil // the consumer owns the sent slice
}

// chanRun is one channel execution of a graph (RunLiveOpts): per-box input
// channels, producer accounting for shutdown, and the box goroutines.
//
// Boxes process their inputs sequentially, so operators need no internal
// locking — the concurrency is pipeline parallelism across boxes plus, for
// compiled sharded stages, data parallelism across shard instances of the
// same operator. Producers batch up to batchSize tuples per destination and
// flush whenever their input momentarily drains, so batching never holds a
// tuple while its producer blocks.
type chanRun struct {
	g         *Graph
	chans     []chan batch
	producers []int
	// bounded marks the boxes whose input channel a BoundedInputOp shortened.
	bounded []bool
	mu      sync.Mutex
	wg      sync.WaitGroup
	// inflight counts batches whose downstream effects have not yet fully
	// propagated: incremented before every channel send, decremented by the
	// consuming box only after it has processed the batch AND flushed the
	// outputs it caused into downstream channels (which increments them
	// first). With the feeder idle, inflight == 0 therefore means the graph
	// is fully quiescent — the checkpoint barrier's consistency condition.
	inflight atomic.Int64
}

// startRun transitions the graph to running and launches one goroutine per
// box. Each box processes its input sequentially (operators need no
// internal locking), batches outputs per destination, and — whenever its
// input momentarily drains — runs its idle flush: the operator's Idle hook
// (partition boxes emit watermarks there) followed by flushing partial
// output batches downstream, so a pending tuple never waits on a producer
// that is itself waiting for input.
func (g *Graph) startRun(buffer int) *chanRun {
	if !g.state.CompareAndSwap(stateOpen, stateRunning) {
		panic("stream: graph is closed or already running — compile a fresh graph for a new run")
	}
	if buffer <= 0 {
		buffer = 128
	}
	r := &chanRun{g: g, chans: make([]chan batch, len(g.boxes)), producers: make([]int, len(g.boxes)),
		bounded: make([]bool, len(g.boxes))}
	for i, b := range g.boxes {
		n := buffer
		if op, ok := b.Op.(BoundedInputOp); ok && op.InputBatches() > 0 {
			n, r.bounded[i] = min(n, op.InputBatches()), true
		}
		r.chans[i] = make(chan batch, n)
	}
	// Per-box producer counts decide when to close inputs: a box's channel
	// closes when all its upstream producers (plus the feeder) are done.
	for _, b := range g.boxes {
		for _, a := range b.outs {
			r.producers[a.to.id]++
		}
	}
	// Every box also counts the external feeder as a potential producer.
	for i := range r.producers {
		r.producers[i]++
	}
	for _, b := range g.boxes {
		r.wg.Add(1)
		go r.runBox(b)
	}
	g.run.Store(r)
	return r
}

func (r *chanRun) release(id int) {
	r.mu.Lock()
	r.producers[id]--
	if r.producers[id] == 0 {
		close(r.chans[id])
	}
	r.mu.Unlock()
}

func (r *chanRun) runBox(b *Box) {
	defer r.wg.Done()
	w := batcher{r: r, pending: make([][]*Tuple, len(b.outs)), sizes: make([]int, len(b.outs))}
	flushAll := func() {
		for i, p := range w.pending {
			if len(p) > 0 {
				w.send(b.outs[i].to.id, b.outs[i].port, i)
			}
		}
	}
	emit := func(out *Tuple) {
		b.statOut.Add(1)
		if i := b.deliverTo(out); i >= 0 {
			a := b.outs[i]
			w.add(a.to.id, a.port, i, out)
			return
		}
		for i, a := range b.outs {
			w.add(a.to.id, a.port, i, out)
		}
	}
	process := func(bt batch) {
		if bt.port == tickPort {
			return // wakeup only; the idle flush below does the work
		}
		for _, t := range bt.ts {
			b.statIn.Add(1)
			b.Op.Process(bt.port, t, emit)
		}
	}
	idleOp, hasIdle := b.Op.(IdleOp)
	idleFlush := func() {
		if hasIdle {
			idleOp.Idle(emit)
		}
		flushAll()
	}
	in := r.chans[b.id]
	open := true
	for open {
		bt, ok := <-in
		if !ok {
			break
		}
		process(bt)
		taken := int64(1)
		// Drain whatever is already queued without blocking, then run the
		// idle flush (operator Idle hook + partial batches) before the next
		// blocking receive — a pending tuple must never wait on a producer
		// that is itself waiting for input, and merges downstream must never
		// wait on a watermark held by an idle partitioner.
	drain:
		for {
			select {
			case bt, ok := <-in:
				if !ok {
					open = false
					break drain
				}
				process(bt)
				taken++
			default:
				break drain
			}
		}
		idleFlush()
		// Only now have this round's batches fully propagated: their outputs
		// sit in downstream channels (counted by the sends above), so the
		// inflight count can never transiently hit zero with work pending.
		r.inflight.Add(-taken)
	}
	b.Op.Flush(emit)
	flushAll()
	for _, a := range b.outs {
		r.release(a.to.id)
	}
}

// tick wakes every box so it runs its idle flush even with no new input.
// Sends are non-blocking: a box with a full input queue has work queued and
// will idle-flush on its own once it drains.
func (r *chanRun) tick() {
	for _, ch := range r.chans {
		r.inflight.Add(1)
		select {
		case ch <- batch{port: tickPort}:
		default:
			r.inflight.Add(-1)
		}
	}
}

// quiesce blocks until no batch is queued or mid-processing anywhere in the
// graph. The caller must guarantee no producer injects concurrently — the
// feeder goroutine itself calls this after flushing its own pending
// batches, and it is the only external producer.
func (r *chanRun) quiesce() {
	for i := 0; r.inflight.Load() != 0; i++ {
		if i < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// finish releases the feeder's producer slot on every box — boxes with no
// other upstream close immediately; closure then propagates along the
// topology as upstream goroutines drain and flush — then waits for every
// box to exit and marks the graph closed.
func (r *chanRun) finish() {
	for i := range r.g.boxes {
		r.release(i)
	}
	r.wg.Wait()
	r.g.run.Store(nil)
	r.g.state.Store(stateClosed)
}

// feeder batches external injections per (box, port) target, mirroring the
// box-side batcher. A live source usually feeds one target, so the feeder
// keeps the previous injection's target and searches the few others only
// when it changes.
type feeder struct {
	w     batcher
	tkeys [][2]int // the (box, port) target of each pending batch
	last  int      // the previous injection's target index, -1 before the first
}

func (r *chanRun) newFeeder() *feeder {
	return &feeder{w: batcher{r: r}, last: -1}
}

func (f *feeder) inject(b *Box, port int, t *Tuple) {
	key := [2]int{b.id, port}
	if f.last < 0 || f.tkeys[f.last] != key {
		f.last = slices.Index(f.tkeys, key)
		if f.last < 0 {
			f.last = len(f.tkeys)
			f.tkeys = append(f.tkeys, key)
			f.w.pending = append(f.w.pending, nil)
			f.w.sizes = append(f.w.sizes, 0)
		}
	}
	f.w.add(b.id, port, f.last, t)
}

// flush pushes every partial injection batch downstream — called when a
// live feed momentarily idles (so the tail of a quiet stream is never held
// back by batching) and when the feed ends.
func (f *feeder) flush() {
	for i, p := range f.w.pending {
		if len(p) > 0 {
			f.w.send(f.tkeys[i][0], f.tkeys[i][1], i)
		}
	}
}

// QueueDepths reports the number of queued batches on each box's input
// channel while a channel execution (RunLiveOpts) is in flight, indexed
// like Boxes(); nil otherwise. Monitoring only — values are instantaneous.
func (g *Graph) QueueDepths() []int {
	r := g.run.Load()
	if r == nil {
		return nil
	}
	out := make([]int, len(r.chans))
	for i, ch := range r.chans {
		out[i] = len(ch)
	}
	return out
}
