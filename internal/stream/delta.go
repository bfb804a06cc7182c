package stream

// DeltaWindowFunc consumes the per-slide *change* in a sliding window's
// contents instead of a full rescan: added holds the tuples that entered the
// window since the previous slide, evicted the tuples that left it. Both are
// in arrival order, and both slices are only valid for the duration of the
// call (the operator reuses them). The function is invoked once per slide —
// including slides with empty deltas — with the window-end timestamp for
// Rstream output stamping.
type DeltaWindowFunc func(added, evicted []*Tuple, end Time, emit Emit)

// deltaWindowOp is the delta-aware sliding-window operator: it keeps its
// buffer as a ring (amortized O(1) append and evict, no per-slide copy of
// the whole window) and hands the consumer per-slide deltas. Semantics are
// identical to NewWindow with the same sliding spec — same windows, same
// membership, same flush draining — only the interface to the consumer
// changes from "here is the window" to "here is what changed".
type deltaWindowOp struct {
	name string
	spec WindowSpec
	fn   DeltaWindowFunc
	// external slides on the close punctuations of a Partition box instead
	// of its own clock (see NewExternalDeltaWindowState).
	external bool

	// ring[head:] are the retained tuples in arrival order; entries before
	// newStart have been announced as added, entries at or after it are
	// still pending announcement at the next slide close.
	ring     []*Tuple
	head     int
	newStart int
	// sorted tracks whether ring[head:] is nondecreasing in TS. While true,
	// eviction pops from the front only (O(evicted)); an out-of-order
	// arrival (a straggler) forces full-scan eviction until the ring drains,
	// preserving exact equivalence with the rescan path.
	sorted bool

	started  bool
	winStart Time
	evictBuf []*Tuple

	// state, when non-nil, is the consumer's durable-state hook: its blob
	// rides along in this operator's snapshot, and on restore it rebuilds
	// the accumulators that shadow the ring (see NewDeltaWindowState).
	state DeltaConsumerState
}

// NewDeltaWindow creates a delta-aware sliding time window: spec must have
// Duration > 0 and Slide > 0. For tumbling or count windows the delta
// interface buys nothing (every tuple is added and evicted exactly once per
// window) — use NewWindow.
func NewDeltaWindow(name string, spec WindowSpec, fn DeltaWindowFunc) Operator {
	spec.Validate()
	if spec.Duration <= 0 || spec.Slide <= 0 {
		panic("stream: NewDeltaWindow requires a sliding time window (Duration > 0, Slide > 0)")
	}
	return &deltaWindowOp{name: name, spec: spec, fn: fn, sorted: true}
}

func (o *deltaWindowOp) Name() string { return o.name }

func (o *deltaWindowOp) Process(_ int, t *Tuple, emit Emit) {
	if o.external {
		if c, ok := controlOf(t); ok {
			if c.kind == ctlClose {
				o.closeSlide(c.end, emit)
			}
			emit(t) // forward the punctuation to the merge
			return
		}
		o.admit(t)
		return
	}
	if !o.started {
		o.started = true
		o.winStart = t.TS
	}
	for t.TS >= o.winStart+o.spec.Slide {
		end := o.winStart + o.spec.Slide
		o.closeSlide(end, emit)
		o.winStart = end
	}
	o.admit(t)
}

// admit appends an arrival to the ring, noting whether it breaks timestamp
// order.
func (o *deltaWindowOp) admit(t *Tuple) {
	if len(o.ring) > o.head && t.TS < o.ring[len(o.ring)-1].TS {
		o.sorted = false
	}
	o.ring = append(o.ring, t)
}

// closeSlide evicts tuples older than the range, announces pending arrivals,
// and fires the consumer for the window ending at end.
func (o *deltaWindowOp) closeSlide(end Time, emit Emit) {
	lo := end - o.spec.Duration
	evicted := o.evictBuf[:0]
	if o.sorted {
		for o.head < len(o.ring) && o.ring[o.head].TS < lo {
			if o.head < o.newStart {
				evicted = append(evicted, o.ring[o.head])
			}
			o.ring[o.head] = nil
			o.head++
		}
	} else {
		// A straggler is live: membership is decided by timestamp, not
		// position, so scan the whole ring (exactly what the rescan window
		// does) while preserving arrival order.
		w := o.head
		keptOld := 0
		for i := o.head; i < len(o.ring); i++ {
			t := o.ring[i]
			if t.TS < lo {
				if i < o.newStart {
					evicted = append(evicted, t)
				}
				continue
			}
			o.ring[w] = t
			if i < o.newStart {
				keptOld++
			}
			w++
		}
		for i := w; i < len(o.ring); i++ {
			o.ring[i] = nil
		}
		o.ring = o.ring[:w]
		o.newStart = o.head + keptOld
	}
	if o.newStart < o.head {
		// Pending arrivals evicted before ever being announced (a slide gap
		// wider than the range): they belong to no window.
		o.newStart = o.head
	}
	added := o.ring[o.newStart:]
	o.evictBuf = evicted // keep the (possibly grown) scratch
	o.fn(added, evicted, end, emit)
	o.newStart = len(o.ring)
	o.compact()
}

// compact reclaims the dead prefix once it dominates the ring, and resets
// the straggler flag when the ring empties (an empty ring is sorted).
func (o *deltaWindowOp) compact() {
	if o.head == len(o.ring) {
		o.ring = o.ring[:0]
		o.head = 0
		o.newStart = 0
		o.sorted = true
		return
	}
	if o.head > 64 && o.head*2 >= len(o.ring) {
		n := copy(o.ring, o.ring[o.head:])
		for i := n; i < len(o.ring); i++ {
			o.ring[i] = nil
		}
		o.ring = o.ring[:n]
		o.newStart -= o.head
		o.head = 0
	}
}

// Flush drains the buffer through successive slides, exactly mirroring the
// rescan window's flush: every retained tuple appears in each remaining
// window it belongs to, and the trailing all-evicted slide is not fired.
func (o *deltaWindowOp) Flush(emit Emit) {
	if o.external {
		return // the partitioner's Flush broadcasts the final closes
	}
	for o.head < len(o.ring) {
		end := o.winStart + o.spec.Slide
		lo := end - o.spec.Duration
		// Peek whether anything survives this slide; if not, the remaining
		// tuples are announced to no one (matching windowOp.Flush, which
		// stops before emitting an empty window).
		alive := false
		for i := o.head; i < len(o.ring); i++ {
			if o.ring[i].TS >= lo {
				alive = true
				break
			}
		}
		if !alive {
			break
		}
		o.closeSlide(end, emit)
		o.winStart = end
	}
	o.ring = o.ring[:0]
	o.head = 0
	o.newStart = 0
	o.sorted = true
}
