// Package server is the network ingest layer: a TCP front end that decodes
// client JSON lines and binary frames (bwire.go) into uncertain tuples,
// feeds a compiled (sharded) query plan running continuously
// (stream.Graph.RunLiveOpts), streams alerts back to subscribers as windows
// close, and applies backpressure through a bounded ingest queue. An
// optional HTTP endpoint (/statsz) exposes per-box engine stats, queue
// depths, and throughput.
//
// The line protocol is newline-delimited JSON, symmetric enough that a load
// generator can diff a live run against an offline one byte for byte:
//
//	client → server
//	  {"kind":"tuple","source":"locations","t_ms":1200,
//	   "keys":{"tag":17},
//	   "attrs":{"x":[41.2,1.5],"y":[7.0,1.5],"z":2.25,"weight":140}}
//	  {"kind":"sub"}      subscribe this connection to the alert stream
//	  {"kind":"end"}      end of input: drain the plan, flush open windows
//	  {"kind":"ckpt"}     checkpoint now: quiesce, snapshot, persist
//
//	server → client
//	  {"kind":"ok"}                        command acknowledged
//	  {"kind":"err","error":"..."}         per-connection error (bad line)
//	  {"kind":"alert","t_ms":...,...}      one alert, as windows close
//	  {"kind":"done","alerts":N}           the drain after "end" finished
//
// Attribute values are either a bare number (a certain value — point mass)
// or a [mean, std] pair (a Gaussian). That is deliberately lossy for richer
// posteriors: the client decides how to summarize its distributions onto
// the wire, and both the live plan and any offline reference consume the
// identical parsed tuples, so equivalence checks stay byte-identical.
//
// The daemon decodes lines with a per-connection LineDecoder (jsonline.go):
// a tuple line in the canonical shape above is scanned straight into the
// positional tuple a binary TUPLES frame decodes to, and ingested as a
// one-tuple frame; any other line goes through json.Unmarshal into Msg, the
// reference path, which decides every result and error text. ParseTuple is
// that reference's tuple builder, kept for offline use (rfidtrace -wire,
// the benchmark's oracle, tests).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

// Attr is an uncertain attribute value on the wire: a certain number, or a
// Gaussian as [mean, std]. It marshals back to the same shape (std == 0
// renders as a bare number).
type Attr struct {
	Mean float64
	Std  float64
}

// PointAttr wires a certain value.
func PointAttr(v float64) Attr { return Attr{Mean: v} }

// DistAttr summarizes a distribution onto the wire as [mean, std].
func DistAttr(d dist.Dist) Attr { return Attr{Mean: d.Mean(), Std: d.Std()} }

// MarshalJSON implements json.Marshaler.
func (a Attr) MarshalJSON() ([]byte, error) {
	if a.Std == 0 {
		return json.Marshal(a.Mean)
	}
	return json.Marshal([2]float64{a.Mean, a.Std})
}

// UnmarshalJSON implements json.Unmarshaler: a number or a [mean, std]
// array. The array arity is checked explicitly — Go decodes JSON arrays
// into fixed-size Go arrays leniently ([] would become a certain 0) — and
// so is null, which Go decodes into a float64 as a silent 0: this is the
// ingest boundary, where a malformed value must be an error, not a silent
// zero in a window aggregate. A value that opens with '[' goes straight to
// the pair decode; any other value that is not a number reports the pair
// decode's error too.
func (a *Attr) UnmarshalJSON(b []byte) error {
	if string(bytes.TrimSpace(b)) == "null" {
		return errors.New("attr must be a number or a [mean, std] pair, not null")
	}
	if len(b) == 0 || b[0] != '[' {
		var v float64
		if err := json.Unmarshal(b, &v); err == nil {
			*a = Attr{Mean: v}
			return nil
		}
	}
	var pair []float64
	if err := json.Unmarshal(b, &pair); err != nil {
		return fmt.Errorf("attr must be a number or a [mean, std] pair: %w", err)
	}
	if len(pair) != 2 {
		return fmt.Errorf("attr array has %d elements, want [mean, std]", len(pair))
	}
	// A decoded []float64 holds only numbers and nulls, and no number
	// spells "null".
	if bytes.Contains(b, []byte("null")) {
		return errors.New("attr [mean, std] pair has a null element")
	}
	*a = Attr{Mean: pair[0], Std: pair[1]}
	return nil
}

// Dist lifts the wire attribute into a distribution.
func (a Attr) Dist() (dist.Dist, error) {
	if err := a.check(); err != nil {
		return nil, err
	}
	return a.val().Dist(), nil
}

// check validates the attribute: finite, with a non-negative std.
func (a Attr) check() error {
	if math.IsNaN(a.Mean) || math.IsInf(a.Mean, 0) || math.IsNaN(a.Std) || math.IsInf(a.Std, 0) {
		return fmt.Errorf("attr [%v, %v] is not finite", a.Mean, a.Std)
	}
	if a.Std < 0 {
		return fmt.Errorf("attr std %v is negative", a.Std)
	}
	return nil
}

// val is a checked attribute in value form: the point mass at Mean when Std
// is zero, N(Mean, Std²) otherwise.
func (a Attr) val() dist.Val {
	if a.Std == 0 {
		return dist.Val{Mu: a.Mean}
	}
	return dist.Val{Mu: a.Mean, Sigma: a.Std}
}

// valAttr summarizes a tuple attribute onto the wire as [mean, std],
// boxing nothing.
func valAttr(v dist.Val) Attr { return Attr{Mean: v.Mean(), Std: v.Std()} }

// Msg is one protocol line, client- or server-originated; Kind selects
// which fields are meaningful.
type Msg struct {
	Kind string `json:"kind"`
	// Source names the plan's input stream a tuple feeds (default
	// "locations").
	Source string `json:"source,omitempty"`
	// T is the tuple or alert application timestamp in milliseconds.
	T int64 `json:"t_ms,omitempty"`
	// Keys are certain integer identity attributes (tag ids).
	Keys map[string]int64 `json:"keys,omitempty"`
	// Attrs are the uncertain attributes (json.Marshal emits map keys
	// sorted, so encoded lines are deterministic).
	Attrs map[string]Attr `json:"attrs,omitempty"`
	// Group is the alert's group key (Q1's floor area).
	Group string `json:"group,omitempty"`
	// P is the alert probability.
	P *float64 `json:"p,omitempty"`
	// Error carries a per-connection error message.
	Error string `json:"error,omitempty"`
	// Alerts is the epoch's alert count. A pointer so "done" always carries
	// the field — a zero-alert epoch must encode {"kind":"done","alerts":0},
	// not {"kind":"done"}: rfidtrace's resume arithmetic (seen − alerts) and
	// strict client parsers read it unconditionally. Subscribe acks still
	// omit it when there is no epoch to resume (a fresh subscribe acks the
	// plain {"kind":"ok"}).
	Alerts *uint64 `json:"alerts,omitempty"`

	// Cluster-protocol fields (router ↔ worker; every one is omitempty, so
	// client-facing lines — alerts, done — are byte-identical to the
	// single-process protocol).

	// Seq is the router partitioner's global arrival stamp on a routed
	// tuple.
	Seq uint64 `json:"seq,omitempty"`
	// Shard is the logical worker slot a message concerns: the routed slot
	// of a tuple, the originating slot on "ckpt_ack", the promoted slot on
	// "promote"/"promoted"/"snap". A pointer because slot 0 is meaningful.
	Shard *int `json:"shard,omitempty"`
	// Replica marks a dual-written tuple copy, which the receiver appends
	// to the slot's replay tail instead of feeding a plan. Routed tuples
	// and replica copies reach a worker only as bwire frames: a worker
	// refuses a JSON tuple line that sets Shard or Replica.
	Replica bool `json:"replica,omitempty"`
	// Workers and Replicas carry cluster geometry on "join".
	Workers  int `json:"workers,omitempty"`
	Replicas int `json:"replicas,omitempty"`
	// Version is the ring membership version ("join", "pong").
	Version uint64 `json:"version,omitempty"`
	// Ckpt identifies a cluster checkpoint round ("ckpt", "ckpt_ack",
	// "snap", "snap_ack", "promote").
	Ckpt uint64 `json:"ckpt,omitempty"`
	// Closes counts window-close punctuations: the snapshot's consumed
	// prefix on "ckpt_ack"/"snap", the router-side suppression floor on
	// "promote".
	Closes uint64 `json:"closes,omitempty"`
	// Data is an opaque binary payload (base64 on the wire): a plan
	// checkpoint on "ckpt_ack"/"snap", a composite reset blob on "reset".
	Data []byte `json:"data,omitempty"`
	// Addr is a worker's advertised listen address on a "join" offer (a
	// worker asking a router to admit it) and on an administrative "leave".
	Addr string `json:"addr,omitempty"`
	// Align forces a promoted instance's window ordinal to Closes instead of
	// the snapshot's recorded close count: a slot migrated mid-stream (or
	// re-acquired after degradation) must emit from the router's current
	// merge ordinal, unlike a failover, which replays the full tail from the
	// snapshot's ordinal.
	Align bool `json:"align,omitempty"`
}

// Protocol message kinds.
const (
	KindTuple = "tuple"
	KindSub   = "sub"
	KindEnd   = "end"
	KindCkpt  = "ckpt"
	KindOK    = "ok"
	KindErr   = "err"
	KindAlert = "alert"
	KindDone  = "done"

	// Liveness probe: any peer may send "ping"; the reply is "pong" with
	// the responder's cluster membership version (0 when unclustered).
	KindPing = "ping"
	KindPong = "pong"

	// Cluster kinds (router ↔ worker). "join" configures a worker's slot
	// and geometry; "ckpt_ack" answers a cluster "ckpt" with
	// the slot's snapshot; "snap"/"snap_ack" install that snapshot on the
	// slot's replica; "promote"/"promoted" fail a dead worker's slot over
	// to its replica.
	KindJoin     = "join"
	KindCkptAck  = "ckpt_ack"
	KindSnap     = "snap"
	KindSnapAck  = "snap_ack"
	KindPromote  = "promote"
	KindPromoted = "promoted"

	// Membership/recovery kinds. "reset" rewinds a worker to a router
	// checkpoint cut (composite blob in Data: own plan, hosted instances,
	// replica snapshots) — sent by a recovering router before it
	// resubscribes; "release" tells a worker to stop emitting for a slot
	// that migrated away; "leave" is a worker announcing graceful departure
	// (or an admin asking the router to drain one).
	KindReset   = "reset"
	KindRelease = "release"
	KindLeave   = "leave"
)

// errMsg builds a per-connection error reply.
func errMsg(format string, args ...any) Msg {
	return Msg{Kind: KindErr, Error: fmt.Sprintf(format, args...)}
}

// AlertCount reads the Alerts field, absent meaning zero.
func (m Msg) AlertCount() uint64 {
	if m.Alerts == nil {
		return 0
	}
	return *m.Alerts
}

// AlertsField boxes an alert count for Msg.Alerts.
func AlertsField(n uint64) *uint64 { return &n }

// ParseTuple validates a "tuple" message and builds the uncertain tuple it
// describes. Attribute names are sorted so the tuple layout is independent
// of JSON map iteration order. Errors are values, never panics. It is the
// offline reference: the daemon lifts the same tuple, with the same checks
// and error texts, through LineDecoder and BwTuple.UTuple.
func ParseTuple(m Msg) (*core.UTuple, error) {
	if m.T < 0 {
		return nil, fmt.Errorf("tuple t_ms %d is negative", m.T)
	}
	if len(m.Attrs) == 0 {
		return nil, fmt.Errorf("tuple carries no attrs")
	}
	names := make([]string, 0, len(m.Attrs))
	for n := range m.Attrs {
		if n == "" {
			return nil, fmt.Errorf("tuple has an empty attr name")
		}
		names = append(names, n)
	}
	sort.Strings(names)
	attrs := make([]dist.Dist, len(names))
	for i, n := range names {
		d, err := m.Attrs[n].Dist()
		if err != nil {
			return nil, fmt.Errorf("attr %q: %w", n, err)
		}
		attrs[i] = d
	}
	u := core.NewUTuple(stream.Time(m.T), names, attrs)
	for k, v := range m.Keys {
		u.SetKey(k, v)
	}
	return u, nil
}

// AlertMsg encodes a result tuple from a compiled plan's sink as an alert
// line. It reads the tuple exclusively through the non-panicking Try*
// accessors: result schemas vary by plan (Q1 alerts carry "group" and "p"
// columns, Q2 join outputs only the payload), and the encoder runs on the
// sink box's goroutine, where a panic would take the engine down.
func AlertMsg(t *stream.Tuple) (Msg, error) {
	uv, ok := t.TryField("u")
	if !ok {
		return Msg{}, fmt.Errorf("result tuple carries no payload field")
	}
	u, ok := uv.(*core.UTuple)
	if !ok {
		return Msg{}, fmt.Errorf("result payload is %T, not an uncertain tuple", uv)
	}
	m := Msg{Kind: KindAlert, T: int64(t.TS)}
	grouped := false
	if g, ok := t.TryString("group"); ok {
		m.Group = g
		grouped = true
	}
	p := u.Exist
	if hp, ok := t.TryFloat("p"); ok {
		p = hp
	}
	m.P = &p
	if u.Keys.Len() > 0 {
		m.Keys = make(map[string]int64, u.Keys.Len())
		for k, v := range u.Keys.Each() {
			m.Keys[k] = v
		}
	}
	names := u.Names()
	m.Attrs = make(map[string]Attr, len(names))
	for _, n := range names {
		if n == "group" && grouped {
			continue // spine aggregates carry an internal marker attr
		}
		m.Attrs[n] = valAttr(u.Val(n))
	}
	return m, nil
}

// EncodeLine marshals a message as one protocol line (trailing newline
// included). Encoding is deterministic — struct field order plus sorted map
// keys — so identical alerts encode to identical bytes on every path.
func EncodeLine(m Msg) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
