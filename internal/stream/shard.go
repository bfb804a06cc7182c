package stream

import (
	"fmt"
	"math"
)

// This file is the keyed shard-parallel execution layer: a Partition box
// splits a stream across P shard instances of an operator (hash of a
// declared key, round-robin otherwise), and a Merge box reunifies the shard
// outputs deterministically. Determinism rests on two in-band mechanisms:
//
//   - Close punctuations: the partitioner runs the same windowClock the
//     unsharded operator would and broadcasts every window close to all
//     shards, so each shard's window lifecycle — including straggler
//     placement and flush draining — is byte-identical to the unsharded
//     plan's, just over a subset of the tuples.
//   - Sequence stamps: the partitioner stamps each routed tuple with its
//     global arrival position on a private shallow copy (input tuples are
//     shared and replayed, so they are never mutated). Order-restoring
//     merges use the stamp to reconstruct the exact pre-partition order.
//
// Control tuples never escape a partition/merge envelope: shard instances
// forward them, merges swallow them.

// ctlKind discriminates control punctuations.
type ctlKind uint8

const (
	// ctlClose closes/emits the window ending at control.end.
	ctlClose ctlKind = iota + 1
	// ctlWatermark promises that every data tuple with Seq < control.seq
	// has already been routed (and, by per-channel FIFO, delivered).
	ctlWatermark
)

// control is the payload of an in-band punctuation tuple.
type control struct {
	kind ctlKind
	end  Time
	seq  uint64
}

// ctlSchema marks control tuples; the field holds the *control payload.
var ctlSchema = NewSchema("__ctl")

func newControlTuple(k ctlKind, end Time, seq uint64) *Tuple {
	return NewTuple(ctlSchema, end, &control{kind: k, end: end, seq: seq})
}

// controlOf extracts the control payload, if t is a punctuation.
func controlOf(t *Tuple) (*control, bool) {
	if t.schema != ctlSchema {
		return nil, false
	}
	return t.Fields[0].(*control), true
}

// IsControl reports whether t is an in-band punctuation rather than data.
// Operators that sit inside a shard envelope use it to pass punctuations
// through; punctuations never reach boxes outside the envelope.
func IsControl(t *Tuple) bool {
	_, ok := controlOf(t)
	return ok
}

// WindowCloseOf reports whether t is a window-close punctuation and, if so,
// the closing window's end timestamp. Merge operators for sharded windowed
// aggregates finalize a window after collecting one close per shard.
func WindowCloseOf(t *Tuple) (Time, bool) {
	if c, ok := controlOf(t); ok && c.kind == ctlClose {
		return c.end, true
	}
	return 0, false
}

// PartitionSpec configures a Partition box.
type PartitionSpec struct {
	// Route maps a data tuple to a shard index in [0, P). Returning ok ==
	// false — or a nil Route — falls back to round-robin, which is
	// deterministic in arrival order (the partitioner is a single box). A
	// keyed operator's route hashes its dedup/group key; tuples missing the
	// key take the round-robin fallback rather than panicking.
	Route func(*Tuple) (shard int, ok bool)
	// Clock, when non-nil, makes the partitioner replicate the unsharded
	// window lifecycle for this spec and broadcast each close to all shards
	// before the tuple that triggered it.
	Clock *WindowSpec
	// Watermarks, when true, broadcasts periodic sequence watermarks so an
	// order-restoring merge (NewSeqMerge) can release buffered tuples
	// without waiting for end-of-stream.
	Watermarks bool
}

// watermarkEvery is the data-tuple cadence of ctlWatermark broadcasts.
const watermarkEvery = 64

// partitionOp splits its input across its outgoing arrows: arrow i feeds
// shard i. Data tuples are stamped and routed to exactly one arrow; control
// punctuations are broadcast to all.
type partitionOp struct {
	name  string
	p     int
	spec  PartitionSpec
	clock windowClock

	rr      int
	seq     uint64
	sinceWM int
	scratch []Time
}

// NewPartition creates a P-way partition box per spec. The compiled graph
// must connect exactly p outgoing arrows, in shard order.
func NewPartition(name string, p int, spec PartitionSpec) Operator {
	if p <= 0 {
		panic("stream: partition needs at least one shard")
	}
	o := &partitionOp{name: name, p: p, spec: spec}
	if spec.Clock != nil {
		spec.Clock.Validate()
		o.clock = windowClock{spec: *spec.Clock}
	}
	return o
}

func (o *partitionOp) Name() string { return o.name }

func (o *partitionOp) Process(_ int, t *Tuple, emit Emit) {
	if IsControl(t) {
		// Punctuations from an enclosing envelope are not ours to route;
		// merges upstream swallow theirs, so this is defensive.
		return
	}
	var post bool
	if o.spec.Clock != nil {
		o.scratch, post = o.clock.observe(t.TS, o.scratch[:0])
		for _, end := range o.scratch {
			emit(newControlTuple(ctlClose, end, o.seq))
		}
	}
	shard := -1
	if o.spec.Route != nil {
		if s, ok := o.spec.Route(t); ok {
			shard = s % o.p
		}
	}
	if shard < 0 {
		shard = o.rr
		o.rr = (o.rr + 1) % o.p
	}
	// Stamp a private shallow copy: the input tuple may be shared across
	// replays and sibling branches, so it is never mutated.
	cp := *t
	cp.Seq = o.seq
	cp.route = int32(shard + 1)
	o.seq++
	emit(&cp)
	if post {
		emit(newControlTuple(ctlClose, t.TS, o.seq))
	}
	if o.spec.Watermarks {
		o.sinceWM++
		if o.sinceWM >= watermarkEvery {
			o.sinceWM = 0
			emit(newControlTuple(ctlWatermark, 0, o.seq))
		}
	}
}

// Idle implements IdleOp: whenever the partitioner's input momentarily
// drains (which is exactly when its channel-executor output batches flush
// partially full), it covers everything routed so far with a watermark, so
// the order-restoring merge downstream releases tuples buffered behind
// filter-drop holes immediately instead of stalling until the every-64-
// tuple cadence — the bug that held a sparse live stream's output hostage
// until Close. Nothing is emitted when no data has been routed since the
// last watermark.
func (o *partitionOp) Idle(emit Emit) {
	if o.spec.Watermarks && o.sinceWM > 0 {
		o.sinceWM = 0
		emit(newControlTuple(ctlWatermark, 0, o.seq))
	}
}

func (o *partitionOp) Flush(emit Emit) {
	if o.spec.Clock != nil {
		o.scratch = o.clock.flushCloses(o.scratch[:0])
		for _, end := range o.scratch {
			emit(newControlTuple(ctlClose, end, o.seq))
		}
	}
	if o.spec.Watermarks {
		emit(newControlTuple(ctlWatermark, 0, math.MaxUint64))
	}
}

// StatelessOp marks operators that hold no cross-tuple state and can
// therefore be replicated round-robin behind a Partition box. The stream
// package's Select, Filter and Union operators qualify; anything windowed,
// joining, or closure-stateful does not.
type StatelessOp interface {
	Operator
	statelessOp()
}

func (o *selectOp) statelessOp() {}
func (o *filterOp) statelessOp() {}
func (o *unionOp) statelessOp()  {}

// statelessShard wraps one round-robin replica of a stateless operator: it
// forwards punctuations, and stamps every output of a data tuple with that
// tuple's sequence (a map's derived outputs inherit the input's position)
// so the downstream NewSeqMerge can restore the pre-partition order. The
// stamping wrapper is one cached closure reading the current (seq, emit)
// from the struct — not a fresh closure per tuple on the sharded hot path.
type statelessShard struct {
	name    string
	inner   Operator
	seq     uint64
	curEmit Emit
	stamped Emit
}

// NewStatelessShard wraps inner as shard idx of a round-robin stateless
// stage.
func NewStatelessShard(inner Operator, idx, p int) Operator {
	o := &statelessShard{name: fmt.Sprintf("%s#%d/%d", inner.Name(), idx, p), inner: inner}
	o.stamped = func(out *Tuple) {
		out.Seq = o.seq
		o.curEmit(out)
	}
	return o
}

func (o *statelessShard) Name() string { return o.name }

func (o *statelessShard) Process(port int, t *Tuple, emit Emit) {
	if IsControl(t) {
		emit(t)
		return
	}
	o.seq = t.Seq
	o.curEmit = emit
	o.inner.Process(port, t, o.stamped)
}

func (o *statelessShard) Flush(emit Emit) { o.inner.Flush(emit) }

// seqMerge restores the pre-partition order of a round-robin-sharded
// stateless stage: per-shard FIFO queues are k-way merged by sequence
// stamp. A tuple is released when every shard queue is non-empty (the
// global minimum is then known: per-shard sequences are increasing) or when
// its sequence is below every shard's watermark (per-channel FIFO
// guarantees nothing earlier can still arrive from that shard). Dropped
// tuples (filter stages) leave holes that watermarks step over.
type seqMerge struct {
	name string
	p    int
	qs   [][]*Tuple
	wm   []uint64
}

// NewSeqMerge creates the order-restoring merge for a p-way round-robin
// stateless stage; shard i must connect to input port i.
func NewSeqMerge(name string, p int) Operator {
	return &seqMerge{name: name, p: p, qs: make([][]*Tuple, p), wm: make([]uint64, p)}
}

func (o *seqMerge) Name() string { return o.name }

func (o *seqMerge) Process(port int, t *Tuple, emit Emit) {
	if port < 0 || port >= o.p {
		panic(fmt.Sprintf("stream: seq merge has %d ports, got %d", o.p, port))
	}
	if c, ok := controlOf(t); ok {
		if c.kind == ctlWatermark && c.seq > o.wm[port] {
			o.wm[port] = c.seq
			o.drain(emit)
		}
		return // punctuations end their envelope here
	}
	o.qs[port] = append(o.qs[port], t)
	o.drain(emit)
}

func (o *seqMerge) drain(emit Emit) {
	for {
		minPort, allFull := -1, true
		for i, q := range o.qs {
			if len(q) == 0 {
				allFull = false
				continue
			}
			if minPort < 0 || q[0].Seq < o.qs[minPort][0].Seq {
				minPort = i
			}
		}
		if minPort < 0 {
			return
		}
		if !allFull {
			minWM := o.wm[0]
			for _, w := range o.wm[1:] {
				if w < minWM {
					minWM = w
				}
			}
			if o.qs[minPort][0].Seq >= minWM {
				return
			}
		}
		head := o.qs[minPort][0]
		o.qs[minPort] = o.qs[minPort][1:]
		if len(o.qs[minPort]) == 0 {
			o.qs[minPort] = nil // release the drained backing array
		}
		emit(head)
	}
}

func (o *seqMerge) Flush(emit Emit) {
	for i := range o.wm {
		o.wm[i] = math.MaxUint64
	}
	o.drain(emit)
}

// ShardPlan is the P-way sharded realization of an operator: how to route
// into the shards, the shard instances themselves, and the merge that
// reunifies their outputs. Operators that can shard expose a plan through
// their package's sharding interface (core.PartitionedOp); the query
// compiler wires plans into the graph.
type ShardPlan struct {
	// Partition configures the Partition box feeding the shards.
	Partition PartitionSpec
	// Shards are the per-shard operator instances, in shard order.
	Shards []Operator
	// Merge reunifies shard outputs; shard i connects to its input port i.
	Merge Operator
}

// KeyHash64 hashes a certain integer key deterministically (SplitMix64
// finalizer — stable across runs and platforms, unlike map iteration or
// hash/maphash seeds). ShardOfKey reduces it modulo the shard count; the
// cluster ring (internal/ring) positions it on a hash circle. Both layers
// sharing one hash keeps a key's in-process shard and cluster owner
// derivations consistent.
func KeyHash64(key int64) uint64 {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOfKey maps a certain integer key to a shard deterministically.
func ShardOfKey(key int64, p int) int {
	return int(KeyHash64(key) % uint64(p))
}

// NewWindowClose builds a window-close punctuation for the window ending
// at end, stamped with the partitioner's close sequence number. The
// cluster router uses it to reconstruct, on each worker, the exact close
// stream its in-process partitioner emitted.
func NewWindowClose(end Time, seq uint64) *Tuple {
	return newControlTuple(ctlClose, end, seq)
}

// CloseSeq reports a window-close punctuation's sequence stamp — the
// partitioner's running close counter, which the router forwards over the
// wire so replayed closes are byte-faithful to the originals.
func CloseSeq(t *Tuple) (uint64, bool) {
	if c, ok := controlOf(t); ok && c.kind == ctlClose {
		return c.seq, true
	}
	return 0, false
}
