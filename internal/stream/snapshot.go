package stream

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/snap"
)

// This file is the durable-state contract of the dataflow engine. Every
// stateful box implements Snapshotter: Snapshot serializes the box's
// mutable state (window buffers, clock boundaries, merge queues, sequence
// counters) into a versioned binary blob, Restore rebuilds an equivalent
// box from one. "Equivalent" is a strong promise here — a restored graph
// fed the post-snapshot suffix of a stream must emit byte-identical
// results to the uninterrupted run, because recovery correctness in
// streamd is asserted on formatted alert bytes (%.17g), not on tolerances.
//
// Tuples inside operator state are serialized by a TupleCodec whose field
// values go through a small registry: scalar kinds are built in, and
// packages that flow richer values (internal/core's uncertain tuples)
// register codecs for them at init. Schemas are interned per blob and
// resolved against canonical registered schemas on decode, so restored
// control tuples keep pointer-identical schemas (controlOf compares
// schema pointers, not names).

// Snapshotter is the optional durable-state interface of an Operator.
// Stateless boxes simply don't implement it; a checkpoint of a graph is
// the ordered snapshots of the boxes that do.
type Snapshotter interface {
	// Snapshot serializes the operator's mutable state. It must only be
	// called while the operator is quiescent (no concurrent Process).
	Snapshot() ([]byte, error)
	// Restore rebuilds state from a Snapshot blob. It must only be called
	// before the operator has processed any tuple.
	Restore(data []byte) error
}

// TupleIDMark returns the current tuple-ID allocation high-water mark.
// Checkpoints record it so recovery can restore the floor.
func TupleIDMark() uint64 { return tupleIDs.Load() }

// EnsureTupleIDFloor raises the tuple-ID allocator to at least n. Recovery
// calls it with the checkpoint's mark so tuples created after restart can
// never collide with IDs that live on inside restored lineage state
// (lineage multisets require distinct tuples to have distinct IDs).
func EnsureTupleIDFloor(n uint64) {
	for {
		cur := tupleIDs.Load()
		if cur >= n || tupleIDs.CompareAndSwap(cur, n) {
			return
		}
	}
}

// --- value codec registry ---

// Value kind tags. Tags below 64 are reserved for the stream package;
// RegisterValueCodec tags must be >= 64.
const (
	valNil uint8 = iota
	valFloat64
	valInt64
	valInt
	valString
	valBool
	valTime
	valControl
)

// ValueEncoder serializes one registered value kind.
type ValueEncoder func(*snap.Writer, Value) error

// ValueDecoder deserializes one registered value kind.
type ValueDecoder func(*snap.Reader) (Value, error)

type valueCodec struct {
	tag uint8
	enc ValueEncoder
	dec ValueDecoder
}

var (
	valueByType = map[reflect.Type]valueCodec{}
	valueByTag  = map[uint8]valueCodec{}
)

// RegisterValueCodec adds an encode/decode pair for a tuple field type
// defined outside this package. The tag must be >= 64 and unique; sample
// fixes the concrete type. Call from init only — the registry is not
// synchronized.
func RegisterValueCodec(tag uint8, sample Value, enc ValueEncoder, dec ValueDecoder) {
	if tag < 64 {
		panic("stream: value codec tags must be >= 64")
	}
	if _, dup := valueByTag[tag]; dup {
		panic(fmt.Sprintf("stream: duplicate value codec tag %d", tag))
	}
	t := reflect.TypeOf(sample)
	if _, dup := valueByType[t]; dup {
		panic(fmt.Sprintf("stream: duplicate value codec type %v", t))
	}
	c := valueCodec{tag: tag, enc: enc, dec: dec}
	valueByType[t] = c
	valueByTag[tag] = c
}

func encodeValue(w *snap.Writer, v Value) error {
	switch x := v.(type) {
	case nil:
		w.U8(valNil)
	case float64:
		w.U8(valFloat64)
		w.F64(x)
	case int64:
		w.U8(valInt64)
		w.Varint(x)
	case int:
		w.U8(valInt)
		w.Varint(int64(x))
	case string:
		w.U8(valString)
		w.String(x)
	case bool:
		w.U8(valBool)
		w.Bool(x)
	case Time:
		w.U8(valTime)
		w.Varint(int64(x))
	case *control:
		w.U8(valControl)
		w.U8(uint8(x.kind))
		w.Varint(int64(x.end))
		w.Uvarint(x.seq)
	default:
		if c, ok := valueByType[reflect.TypeOf(v)]; ok {
			w.U8(c.tag)
			return c.enc(w, v)
		}
		return fmt.Errorf("stream: no snapshot codec for tuple value %T", v)
	}
	return nil
}

func decodeValue(r *snap.Reader) (Value, error) {
	tag := r.U8()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case valNil:
		return nil, nil
	case valFloat64:
		return r.F64(), nil
	case valInt64:
		return r.Varint(), nil
	case valInt:
		return int(r.Varint()), nil
	case valString:
		return r.String(), nil
	case valBool:
		return r.Bool(), nil
	case valTime:
		return Time(r.Varint()), nil
	case valControl:
		return &control{kind: ctlKind(r.U8()), end: Time(r.Varint()), seq: r.Uvarint()}, nil
	default:
		c, ok := valueByTag[tag]
		if !ok {
			r.Fail("unknown value tag %d", tag)
			return nil, r.Err()
		}
		return c.dec(r)
	}
}

// --- canonical schema registry ---

var canonicalSchemas = map[string]*Schema{}

// RegisterSchema records a canonical schema so decoded tuples share its
// pointer (required wherever schema identity is compared — control tuples
// foremost). Call from init only.
func RegisterSchema(s *Schema) {
	key := strings.Join(s.Names, "\x00")
	if prev, dup := canonicalSchemas[key]; dup && prev != s {
		panic(fmt.Sprintf("stream: conflicting canonical schemas for %v", s.Names))
	}
	canonicalSchemas[key] = s
}

func init() { RegisterSchema(ctlSchema) }

// --- tuple codec ---

// TupleCodec serializes tuples within one snapshot blob, interning schemas
// so each distinct schema's field names are written once. A codec instance
// is single-use per direction (one for encoding a blob, one for decoding
// it); interleaving directions or blobs corrupts the intern table.
type TupleCodec struct {
	encIdx  map[*Schema]int
	schemas []*Schema
}

// NewTupleCodec returns a fresh codec for one snapshot blob.
func NewTupleCodec() *TupleCodec {
	return &TupleCodec{}
}

// Encode appends one tuple.
func (c *TupleCodec) Encode(w *snap.Writer, t *Tuple) error {
	if c.encIdx == nil {
		c.encIdx = map[*Schema]int{} // the decode direction never needs it
	}
	w.Uvarint(t.ID)
	w.Varint(int64(t.TS))
	w.Uvarint(t.Seq)
	if t.schema == nil {
		w.Uvarint(0)
	} else if idx, seen := c.encIdx[t.schema]; seen {
		w.Uvarint(uint64(idx) + 1)
	} else {
		idx = len(c.schemas)
		c.encIdx[t.schema] = idx
		c.schemas = append(c.schemas, t.schema)
		w.Uvarint(uint64(idx) + 1)
		w.Uvarint(uint64(len(t.schema.Names)))
		for _, n := range t.schema.Names {
			w.String(n)
		}
	}
	w.Uvarint(uint64(len(t.Fields)))
	for _, v := range t.Fields {
		if err := encodeValue(w, v); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads one tuple. On malformed input it records the error on r and
// returns nil.
func (c *TupleCodec) Decode(r *snap.Reader) *Tuple {
	t := &Tuple{}
	t.ID = r.Uvarint()
	t.TS = Time(r.Varint())
	t.Seq = r.Uvarint()
	ref := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	switch {
	case ref == 0:
		// schema-less internal tuple
	case int(ref) <= len(c.schemas):
		t.schema = c.schemas[ref-1]
	case int(ref) == len(c.schemas)+1:
		n := r.Len()
		names := make([]string, n)
		seen := make(map[string]bool, n)
		for i := range names {
			names[i] = r.String()
			if seen[names[i]] && r.Err() == nil {
				r.Fail("schema repeats field %q", names[i])
			}
			seen[names[i]] = true
		}
		if r.Err() != nil {
			return nil
		}
		s, ok := canonicalSchemas[strings.Join(names, "\x00")]
		if !ok || len(s.Names) != n { // a name holding the separator
			s = NewSchema(names...)
		}
		c.schemas = append(c.schemas, s)
		t.schema = s
	default:
		r.Fail("schema ref %d out of range (%d interned)", ref, len(c.schemas))
		return nil
	}
	n := r.Len()
	if r.Err() != nil {
		return nil
	}
	t.Fields = make([]Value, n)
	for i := range t.Fields {
		v, err := decodeValue(r)
		if err != nil {
			r.Fail("field %d: %v", i, err)
			return nil
		}
		t.Fields[i] = v
	}
	return t
}

func encodeTuples(w *snap.Writer, c *TupleCodec, ts []*Tuple) error {
	w.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		if err := c.Encode(w, t); err != nil {
			return err
		}
	}
	return nil
}

func decodeTuples(r *snap.Reader, c *TupleCodec) []*Tuple {
	n := r.Len()
	if r.Err() != nil || n == 0 {
		return nil
	}
	ts := make([]*Tuple, 0, n)
	for i := 0; i < n; i++ {
		t := c.Decode(r)
		if r.Err() != nil {
			return nil
		}
		ts = append(ts, t)
	}
	return ts
}

// specCheck guards restore against wiring drift: a snapshot taken under
// one window spec must not silently restore into an operator compiled
// with another.
func encodeSpec(w *snap.Writer, spec WindowSpec) {
	w.Varint(int64(spec.Count))
	w.Varint(int64(spec.Duration))
	w.Varint(int64(spec.Slide))
}

func checkSpec(r *snap.Reader, spec WindowSpec, name string) {
	count := int(r.Varint())
	dur := Time(r.Varint())
	slide := Time(r.Varint())
	if r.Err() == nil && (count != spec.Count || dur != spec.Duration || slide != spec.Slide) {
		r.Fail("%s: snapshot window spec {%d %d %d} != operator spec {%d %d %d}",
			name, count, dur, slide, spec.Count, spec.Duration, spec.Slide)
	}
}

// --- windowClock ---

func (c *windowClock) encode(w *snap.Writer) {
	w.Bool(c.started)
	w.Varint(int64(c.winStart))
	w.Varint(int64(c.fill))
	w.Bool(c.buffered)
	w.Varint(int64(c.maxTS))
	w.Varint(int64(c.lastTS))
}

func (c *windowClock) decode(r *snap.Reader) {
	c.started = r.Bool()
	c.winStart = Time(r.Varint())
	c.fill = int(r.Varint())
	c.buffered = r.Bool()
	c.maxTS = Time(r.Varint())
	c.lastTS = Time(r.Varint())
	if c.spec.Count == 0 && c.started && c.spec.boundaryOverflows(c.winStart) {
		r.Fail("window clock start %d: next boundary overflows", c.winStart)
	}
}

// --- windowOp ---

const windowSnapV1 = 1

// Snapshot implements Snapshotter: the clock boundary state plus the
// buffered tuples (external-mode windows leave the clock at its zero
// value, which round-trips harmlessly).
func (o *windowOp) Snapshot() ([]byte, error) {
	w := &snap.Writer{}
	w.U8(windowSnapV1)
	encodeSpec(w, o.spec)
	o.clock.encode(w)
	if err := encodeTuples(w, NewTupleCodec(), o.buf); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// Restore implements Snapshotter.
func (o *windowOp) Restore(data []byte) error {
	r := snap.NewReader(data)
	if v := r.U8(); v != windowSnapV1 && r.Err() == nil {
		r.Fail("window snapshot version %d", v)
	}
	checkSpec(r, o.spec, o.name)
	o.clock.decode(r)
	o.buf = decodeTuples(r, NewTupleCodec())
	return r.Close()
}

// --- deltaWindowOp ---

// DeltaConsumerState is the durable-state hook for the stateful consumer
// behind a DeltaWindowFunc (the incremental aggregation paths). The
// operator snapshots its ring itself; the consumer serializes only state
// that is NOT derivable from the retained tuples, and on restore rebuilds
// the derivable rest from the announced residents.
type DeltaConsumerState interface {
	// SnapshotState serializes consumer state not derivable from the ring.
	SnapshotState() ([]byte, error)
	// RestoreState rebuilds consumer state. announced holds the retained
	// tuples the consumer has already been handed as "added", in arrival
	// order — exactly the live set its accumulators cover.
	RestoreState(data []byte, announced []*Tuple) error
}

// NewDeltaWindowState is NewDeltaWindow for consumers with durable state:
// st's SnapshotState/RestoreState ride along in the window's snapshot, so
// the operator restores both the ring and the accumulators that shadow it.
func NewDeltaWindowState(name string, spec WindowSpec, fn DeltaWindowFunc, st DeltaConsumerState) Operator {
	op := NewDeltaWindow(name, spec, fn).(*deltaWindowOp)
	op.state = st
	return op
}

// NewExternalDeltaWindowState is NewDeltaWindowState driven by close
// punctuations instead of its own clock — the delta counterpart of
// NewExternalWindow, for shard instances behind a Partition box. Each
// close slides the window to the punctuation's end (evict, announce, call
// fn) and is then forwarded downstream; data tuples are only buffered, and
// Flush is a no-op because the partitioner's Flush broadcasts the final
// closes. The partitioner emits every close before the tuple that
// triggered it, so the buffered tuples always precede the closing end and
// fn's window is exactly NewExternalWindow's.
func NewExternalDeltaWindowState(name string, spec WindowSpec, fn DeltaWindowFunc, st DeltaConsumerState) Operator {
	op := NewDeltaWindowState(name, spec, fn, st).(*deltaWindowOp)
	op.external = true
	return op
}

// Delta-window snapshot versions. An externally clocked window writes its
// own version byte, so a blob from another window realization — an
// internally clocked delta window, or a shard instance's windowOp blob,
// whose windowSnapV1 byte the delta layout would otherwise accept —
// fails to restore instead of decoding as the wrong layout.
const (
	deltaSnapV1         = 1
	deltaExternalSnapV1 = 2
)

func (o *deltaWindowOp) snapVersion() uint8 {
	if o.external {
		return deltaExternalSnapV1
	}
	return deltaSnapV1
}

// Snapshot implements Snapshotter: boundary state, the live ring (dead
// prefix dropped, announce boundary kept relative), and the consumer's
// own blob.
func (o *deltaWindowOp) Snapshot() ([]byte, error) {
	w := &snap.Writer{}
	w.U8(o.snapVersion())
	encodeSpec(w, o.spec)
	w.Bool(o.started)
	w.Varint(int64(o.winStart))
	w.Bool(o.sorted)
	w.Varint(int64(o.newStart - o.head))
	if err := encodeTuples(w, NewTupleCodec(), o.ring[o.head:]); err != nil {
		return nil, err
	}
	var blob []byte
	if o.state != nil {
		var err error
		blob, err = o.state.SnapshotState()
		if err != nil {
			return nil, err
		}
	}
	w.Blob(blob)
	return w.Bytes(), nil
}

// Restore implements Snapshotter.
func (o *deltaWindowOp) Restore(data []byte) error {
	r := snap.NewReader(data)
	if v := r.U8(); v != o.snapVersion() && r.Err() == nil {
		r.Fail("delta window snapshot version %d", v)
	}
	checkSpec(r, o.spec, o.name)
	started := r.Bool()
	winStart := Time(r.Varint())
	sorted := r.Bool()
	newStart := int(r.Varint())
	ring := decodeTuples(r, NewTupleCodec())
	blob := r.Blob()
	if err := r.Close(); err != nil {
		return err
	}
	if newStart < 0 || newStart > len(ring) {
		return fmt.Errorf("%s: announce boundary %d outside ring of %d", o.name, newStart, len(ring))
	}
	if started && o.spec.boundaryOverflows(winStart) {
		return fmt.Errorf("%s: window start %d: next boundary overflows", o.name, winStart)
	}
	o.started, o.winStart, o.sorted = started, winStart, sorted
	o.ring, o.head, o.newStart = ring, 0, newStart
	if o.state != nil {
		if err := o.state.RestoreState(blob, o.ring[:o.newStart]); err != nil {
			return fmt.Errorf("%s: consumer state: %w", o.name, err)
		}
	}
	return nil
}

// --- partitionOp ---

const partitionSnapV1 = 1

// Snapshot implements Snapshotter: the replicated window clock plus the
// round-robin cursor, sequence stamp, and watermark cadence counter.
func (o *partitionOp) Snapshot() ([]byte, error) {
	w := &snap.Writer{}
	w.U8(partitionSnapV1)
	w.Varint(int64(o.p))
	o.clock.encode(w)
	w.Varint(int64(o.rr))
	w.Uvarint(o.seq)
	w.Varint(int64(o.sinceWM))
	return w.Bytes(), nil
}

// Restore implements Snapshotter.
func (o *partitionOp) Restore(data []byte) error {
	r := snap.NewReader(data)
	if v := r.U8(); v != partitionSnapV1 && r.Err() == nil {
		r.Fail("partition snapshot version %d", v)
	}
	if p := int(r.Varint()); p != o.p && r.Err() == nil {
		r.Fail("%s: snapshot has %d shards, operator has %d", o.name, p, o.p)
	}
	clock := windowClock{spec: o.clock.spec}
	clock.decode(r)
	rr := r.Varint()
	seq := r.Uvarint()
	sinceWM := r.Varint()
	if err := r.Close(); err != nil {
		return err
	}
	// A cursor outside [0, p) would stamp a route past the last arrow,
	// which the engine delivers as a broadcast: one tuple to every shard.
	if rr < 0 || rr >= int64(o.p) {
		return fmt.Errorf("%s: round-robin cursor %d outside [0, %d)", o.name, rr, o.p)
	}
	if sinceWM < 0 || sinceWM >= watermarkEvery {
		return fmt.Errorf("%s: watermark cadence count %d outside [0, %d)", o.name, sinceWM, watermarkEvery)
	}
	if n := max(clock.spec.Count, 1); clock.fill < 0 || clock.fill >= n {
		return fmt.Errorf("%s: window clock fill %d outside [0, %d)", o.name, clock.fill, n)
	}
	o.clock, o.rr, o.seq, o.sinceWM = clock, int(rr), seq, int(sinceWM)
	return nil
}

// --- seqMerge ---

const seqMergeSnapV1 = 1

// Snapshot implements Snapshotter: per-port watermarks and buffered queues.
func (o *seqMerge) Snapshot() ([]byte, error) {
	w := &snap.Writer{}
	w.U8(seqMergeSnapV1)
	w.Varint(int64(o.p))
	c := NewTupleCodec()
	for i := 0; i < o.p; i++ {
		w.Uvarint(o.wm[i])
		if err := encodeTuples(w, c, o.qs[i]); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// Restore implements Snapshotter.
func (o *seqMerge) Restore(data []byte) error {
	r := snap.NewReader(data)
	if v := r.U8(); v != seqMergeSnapV1 && r.Err() == nil {
		r.Fail("seq merge snapshot version %d", v)
	}
	if p := int(r.Varint()); p != o.p && r.Err() == nil {
		r.Fail("%s: snapshot has %d ports, operator has %d", o.name, p, o.p)
	}
	c := NewTupleCodec()
	for i := 0; i < o.p && r.Err() == nil; i++ {
		o.wm[i] = r.Uvarint()
		o.qs[i] = decodeTuples(r, c)
	}
	err := r.Close()
	if err == nil {
		err = o.checkRestored()
	}
	if err != nil {
		clear(o.wm)
		clear(o.qs)
	}
	return err
}

// checkRestored refuses a restored state no run can reach. A snapshot is
// taken between Process calls, each of which ends in a drain: every queue
// holds data tuples in shard order, and nothing the merge could release is
// still queued.
func (o *seqMerge) checkRestored() error {
	for i, q := range o.qs {
		for j, t := range q {
			if IsControl(t) {
				return fmt.Errorf("%s: port %d queues a punctuation", o.name, i)
			}
			if j > 0 && t.Seq < q[j-1].Seq {
				return fmt.Errorf("%s: port %d queue out of sequence order", o.name, i)
			}
		}
	}
	var released bool
	o.drain(func(*Tuple) { released = true })
	if released {
		return fmt.Errorf("%s: snapshot queues a tuple its watermarks release", o.name)
	}
	return nil
}

// --- joinOp ---

const joinSnapV1 = 1

// Snapshot implements Snapshotter: both side windows.
func (o *joinOp) Snapshot() ([]byte, error) {
	w := &snap.Writer{}
	w.U8(joinSnapV1)
	w.Varint(int64(o.rangeMS))
	c := NewTupleCodec()
	if err := encodeTuples(w, c, o.left); err != nil {
		return nil, err
	}
	if err := encodeTuples(w, c, o.right); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// Restore implements Snapshotter.
func (o *joinOp) Restore(data []byte) error {
	r := snap.NewReader(data)
	if v := r.U8(); v != joinSnapV1 && r.Err() == nil {
		r.Fail("join snapshot version %d", v)
	}
	if rg := Time(r.Varint()); rg != o.rangeMS && r.Err() == nil {
		r.Fail("%s: snapshot range %d != operator range %d", o.name, rg, o.rangeMS)
	}
	c := NewTupleCodec()
	o.left = decodeTuples(r, c)
	o.right = decodeTuples(r, c)
	return r.Close()
}
