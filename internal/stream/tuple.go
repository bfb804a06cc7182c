// Package stream is the box-arrow dataflow engine of §3: operators are
// boxes, arrows are the dataflow between them, and a diagram is either
// compiled from a query (Q1/Q2 in §2.1) or assembled directly as a
// scientific workflow (the CASA pipeline). The engine is deliberately
// independent of the uncertainty machinery — tuples carry opaque attribute
// values, and the uncertain relational operators in internal/core are just
// boxes whose attributes happen to be probability distributions.
package stream

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Time is a stream timestamp in milliseconds. Application time, not wall
// time: sources assign it, windows and joins consume it.
type Time int64

// Millisecond is one unit of Time.
const Millisecond Time = 1

// Second is 1000 Time units.
const Second Time = 1000

// Value is an attribute value. Operators treat values as opaque except via
// the accessor helpers; the uncertain operators store dist.Dist values.
type Value any

// Schema names the fields of tuples on a stream. Field order is positional;
// names are for construction and debugging.
type Schema struct {
	Names []string
	index map[string]int
}

// NewSchema builds a schema from field names (must be unique).
func NewSchema(names ...string) *Schema {
	s := &Schema{Names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := s.index[n]; dup {
			panic(fmt.Sprintf("stream: duplicate field %q", n))
		}
		s.index[n] = i
	}
	return s
}

// Index returns the position of a field name, or -1.
func (s *Schema) Index(name string) int {
	if s == nil {
		return -1
	}
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// MustIndex is Index that panics on unknown fields; used at pipeline
// construction time so wiring errors fail fast rather than mid-stream.
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("stream: unknown field %q (have %v)", name, s.Names))
	}
	return i
}

var tupleIDs atomic.Uint64

// NextTupleID allocates a process-unique tuple id (used for lineage).
func NextTupleID() uint64 { return tupleIDs.Add(1) }

// Tuple is one stream element: a timestamp plus positional field values.
// The ID identifies the tuple for lineage tracking; it is assigned at
// creation and preserved by value-only transformations.
type Tuple struct {
	ID     uint64
	TS     Time
	Fields []Value

	// Seq is the global arrival sequence stamped by a Partition box on its
	// private copy of each routed tuple; ordered Merge boxes use it to
	// restore the pre-partition stream order. Zero outside a shard envelope.
	Seq uint64
	// route, when positive, directs the engine to deliver the tuple along
	// outgoing arrow route−1 only instead of broadcasting to every arrow
	// (Partition sets it; the engine clears it at dispatch).
	route int32

	schema *Schema
}

// RouteShard reports the shard a Partition box directed this tuple to, if
// any. It is only meaningful on tuples read straight off a partition
// operator's emit callback (the cluster router drives one outside a
// compiled graph); once the engine dispatches a tuple the route is spent.
func (t *Tuple) RouteShard() (int, bool) {
	if t.route <= 0 {
		return 0, false
	}
	return int(t.route - 1), true
}

// NewTuple creates a tuple bound to a schema; the number of values must
// match the schema arity.
func NewTuple(s *Schema, ts Time, values ...Value) *Tuple {
	if len(values) != len(s.Names) {
		panic(fmt.Sprintf("stream: tuple arity %d != schema arity %d", len(values), len(s.Names)))
	}
	return &Tuple{ID: NextTupleID(), TS: ts, Fields: values, schema: s}
}

// NewTuple1 creates a tuple of a one-field schema with the given id, its
// field array in the tuple's own allocation: one allocation where NewTuple
// makes two.
func NewTuple1(s *Schema, ts Time, id uint64, v Value) *Tuple {
	if len(s.Names) != 1 {
		panic(fmt.Sprintf("stream: tuple arity 1 != schema arity %d", len(s.Names)))
	}
	b := &struct {
		t Tuple
		f [1]Value
	}{f: [1]Value{v}}
	b.t = Tuple{ID: id, TS: ts, Fields: b.f[:], schema: s}
	return &b.t
}

// Schema returns the tuple's schema (may be nil for schema-less internal
// tuples).
func (t *Tuple) Schema() *Schema { return t.schema }

// Get returns the value of the named field.
func (t *Tuple) Get(name string) Value {
	return t.Fields[t.schema.MustIndex(name)]
}

// Float returns the named field as float64, converting integer types.
func (t *Tuple) Float(name string) float64 {
	switch v := t.Get(name).(type) {
	case float64:
		return v
	case float32:
		return float64(v)
	case int:
		return float64(v)
	case int64:
		return float64(v)
	default:
		panic(fmt.Sprintf("stream: field %q is %T, not numeric", name, v))
	}
}

// String returns the named field as a string.
func (t *Tuple) Str(name string) string {
	if v, ok := t.Get(name).(string); ok {
		return v
	}
	panic(fmt.Sprintf("stream: field %q is not a string", name))
}

// TryField returns the named field's value, reporting ok = false for nil
// schemas, unknown fields, and arity mismatches instead of panicking. The
// panicking accessors are right for compiled plans — a wiring error should
// fail fast — but fatal at a network boundary, where a malformed client
// line must become a per-connection error, not a crashed box goroutine.
func (t *Tuple) TryField(name string) (Value, bool) {
	if t == nil || t.schema == nil {
		return nil, false
	}
	i := t.schema.Index(name)
	if i < 0 || i >= len(t.Fields) {
		return nil, false
	}
	return t.Fields[i], true
}

// TryFloat is Float without the panic: ok = false for missing fields and
// non-numeric values.
func (t *Tuple) TryFloat(name string) (float64, bool) {
	v, ok := t.TryField(name)
	if !ok {
		return 0, false
	}
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

// TryString is Str without the panic: ok = false for missing fields and
// non-string values.
func (t *Tuple) TryString(name string) (string, bool) {
	v, ok := t.TryField(name)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// WithFields returns a derived tuple with the given schema and values,
// preserving timestamp and identity.
func (t *Tuple) WithFields(s *Schema, values ...Value) *Tuple {
	out := NewTuple(s, t.TS, values...)
	out.ID = t.ID
	return out
}

// Derive returns a tuple with a fresh ID at the given timestamp — used by
// operators that *produce* new logical tuples (aggregates, joins).
func Derive(s *Schema, ts Time, values ...Value) *Tuple {
	return NewTuple(s, ts, values...)
}

// Format renders the tuple for debugging.
func (t *Tuple) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%d{", t.TS)
	for i, v := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		if t.schema != nil {
			fmt.Fprintf(&b, "%s=", t.schema.Names[i])
		}
		fmt.Fprintf(&b, "%v", v)
	}
	b.WriteString("}")
	return b.String()
}
