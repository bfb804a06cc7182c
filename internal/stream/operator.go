package stream

import "fmt"

// Emit forwards a tuple to the downstream arrow.
type Emit func(*Tuple)

// Operator is a box in the box-arrow diagram. Process receives one tuple on
// an input port (single-input operators see port 0); Flush signals
// end-of-stream so windowed operators can drain pending state.
type Operator interface {
	// Name identifies the box in metrics and debug output.
	Name() string
	// Process consumes one input tuple, emitting zero or more outputs.
	Process(port int, t *Tuple, emit Emit)
	// Flush drains buffered state at end-of-stream.
	Flush(emit Emit)
}

// IdleOp is implemented by operators that want a callback when their box's
// input momentarily drains under channel execution (RunLiveOpts). Idle
// runs before the box's partial output batches flush downstream, so
// anything it emits rides the same flush. Partition boxes emit sequence
// watermarks here: an order-restoring merge downstream can then release
// tuples buffered behind filter-drop holes as soon as the stream goes
// quiet, instead of stalling until the periodic watermark cadence or
// end-of-stream. Idle must be cheap and must tolerate being called any
// number of times with no intervening Process.
type IdleOp interface {
	Operator
	// Idle is called when the box's input momentarily drains.
	Idle(emit Emit)
}

// BoundedInputOp is implemented by operators whose queued input is costly
// to hold — a shard merge fed one slide delta per close, where each tuple
// carries a whole slide's prepared contributions, and the shards feeding it,
// whose lead over a sibling the merge must buffer. Under channel execution
// the box's input channel then holds at most InputBatches batches instead
// of the executor's buffer, and a window close ends the batch carrying it
// into the box, so the bound counts windows: producers that outrun the box
// wait instead of queueing windows of state. A result ≤ 0 keeps the
// executor's buffer and batching.
type BoundedInputOp interface {
	Operator
	InputBatches() int
}

// MapFunc transforms one tuple into another (nil drops the tuple).
type MapFunc func(*Tuple) *Tuple

// selectOp implements projection/extension: the Select-From inner query of
// Q1 ("adds two attributes to each tuple") is a selectOp computing
// area(x,y,z) and weight(tag_id).
type selectOp struct {
	name string
	fn   MapFunc
}

// NewSelect creates a map/projection operator.
func NewSelect(name string, fn MapFunc) Operator {
	return &selectOp{name: name, fn: fn}
}

func (o *selectOp) Name() string { return o.name }

func (o *selectOp) Process(_ int, t *Tuple, emit Emit) {
	if out := o.fn(t); out != nil {
		emit(out)
	}
}

func (o *selectOp) Flush(Emit) {}

// Pred decides whether a tuple passes a filter.
type Pred func(*Tuple) bool

type filterOp struct {
	name string
	pred Pred
}

// NewFilter creates a selection operator keeping tuples where pred is true.
func NewFilter(name string, pred Pred) Operator {
	return &filterOp{name: name, pred: pred}
}

func (o *filterOp) Name() string { return o.name }

func (o *filterOp) Process(_ int, t *Tuple, emit Emit) {
	if o.pred(t) {
		emit(t)
	}
}

func (o *filterOp) Flush(Emit) {}

// unionOp merges any number of input ports into one output stream.
type unionOp struct{ name string }

// NewUnion creates a union (merge) operator.
func NewUnion(name string) Operator { return &unionOp{name: name} }

func (o *unionOp) Name() string                       { return o.name }
func (o *unionOp) Process(_ int, t *Tuple, emit Emit) { emit(t) }
func (o *unionOp) Flush(Emit)                         {}

// FuncOp wraps plain functions as an Operator for ad-hoc boxes.
type FuncOp struct {
	OpName  string
	OnTuple func(port int, t *Tuple, emit Emit)
	OnFlush func(emit Emit)
}

// Name implements Operator.
func (f *FuncOp) Name() string {
	if f.OpName == "" {
		return "func"
	}
	return f.OpName
}

// Process implements Operator.
func (f *FuncOp) Process(port int, t *Tuple, emit Emit) {
	if f.OnTuple != nil {
		f.OnTuple(port, t, emit)
	}
}

// Flush implements Operator.
func (f *FuncOp) Flush(emit Emit) {
	if f.OnFlush != nil {
		f.OnFlush(emit)
	}
}

// Collect is a sink operator accumulating everything it receives; tests and
// examples read .Tuples afterwards. With OnTuple set it becomes a streaming
// sink instead: each tuple is handed to the callback as it arrives (from
// the sink box's goroutine under channel execution) and nothing
// accumulates — the shape continuous consumers (the ingest server's alert
// subscribers) need.
type Collect struct {
	OpName string
	Tuples []*Tuple
	// OnTuple, when non-nil, replaces accumulation with a streaming
	// callback.
	OnTuple func(*Tuple)
}

// Name implements Operator.
func (c *Collect) Name() string {
	if c.OpName == "" {
		return "collect"
	}
	return c.OpName
}

// Process implements Operator.
func (c *Collect) Process(_ int, t *Tuple, _ Emit) {
	if c.OnTuple != nil {
		c.OnTuple(t)
		return
	}
	c.Tuples = append(c.Tuples, t)
}

// Flush implements Operator.
func (c *Collect) Flush(Emit) {}

// Reset clears collected tuples.
func (c *Collect) Reset() { c.Tuples = nil }

// String renders the collected tuples.
func (c *Collect) String() string {
	s := ""
	for _, t := range c.Tuples {
		s += fmt.Sprintln(t.Format())
	}
	return s
}
