// bwire is the length-prefixed binary wire protocol: the high-volume
// alternative to the JSON-lines protocol in wire.go, negotiated per
// message by a magic-byte sniff so both share one port and one
// connection. Clients may use either; on router↔worker links it is the
// only encoding for routed tuples, replica copies, closes and parts.
//
// Frame layout (all multi-byte integers inside the payload use the
// internal/snap primitives — uvarint/zig-zag varint/fixed little-endian):
//
//	0xBF  kind(1)  payload_len(u32 LE)  payload
//
// 0xBF can never begin a JSON-lines message (RFC 8259 JSON text starts
// with ASCII whitespace or a value byte, all < 0x80), so a reader peeks
// one byte per message and dispatches: frame or line. There is no mode
// switch — a connection may interleave binary tuple frames with JSON
// control lines ("end", "ckpt"), and replies, alerts, and done lines stay
// JSON on every path. The one handshake is a worker's: it serves its part
// stream only to a connection that sent HELLO.
//
// The hot kind is TUPLES: a batch of up to 32 tuples (matching the
// engine's channel transport batches) referencing a schema table interned
// per connection — SCHEMA frames name the source and the sorted key/attr
// columns once, and every tuple after that is just fixed fields: flags,
// t_ms varint, seq uvarint, key varints, and float64 raw-bits
// (mean, std) pairs. That kills the three per-tuple costs of the reference
// JSON path: map-shaped decoding, name sorting (ParseTuple), and
// base64/JSON re-marshalling on cluster links. A JSON tuple line is
// decoded into the same positional BwTuple (LineDecoder, jsonline.go), so
// both protocols ingest through one path.
//
// Structural validation (frame shape, schema references, sorted names)
// happens at decode; semantic validation (negative t_ms, non-finite
// attrs) happens when a tuple is lifted into the engine, exactly like the
// JSON path — so a decoded frame re-encodes byte-identically regardless
// of whether the engine would accept its tuples.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/snap"
	"repro/internal/stream"
)

// BwMagic is the first byte of every binary frame; it is never valid as
// the leading byte of a JSON-lines message.
const BwMagic = 0xBF

// Binary frame kinds. Only the hot protocol verbs have binary encodings;
// everything else (join, ckpt, snap, promote, acks, alerts, done) stays
// JSON — those are per-epoch or per-window, not per-tuple.
const (
	// BwHello announces a binary-capable peer: a router sends it on every
	// worker link before "join" (a worker serves its BwPart stream only to
	// a connection that sent one), and a client may send it before its
	// first frame so /statsz labels the connection before tuples arrive.
	BwHello byte = 0x01
	// BwSchemaFrame interns a tuple shape (a BwSchema): source name plus
	// sorted key/attr columns, under a sender-assigned id. Sent once per
	// shape per connection, before the first TUPLES frame referencing it.
	BwSchemaFrame byte = 0x02
	// BwTuples is a batch of tuples sharing one schema.
	BwTuples byte = 0x03
	// BwClose is a window-close punctuation (router → worker).
	BwClose byte = 0x04
	// BwPart ships a partial aggregate or a forwarded close (worker →
	// router): slot uvarint + a length-prefixed core.PartCodec encoding.
	// Kind 0x05, the retired tuple-blob part frame, is never sent: a peer
	// still speaking it gets worker errors, not misdecoded partials.
	BwPart byte = 0x07
	// BwTail is a self-contained tuple record (schema inline) that never
	// crosses the wire: workers append it to replica replay tails, which
	// outlive the connection whose schema table defined the tuple.
	BwTail byte = 0x06
)

// Tuple flag bits.
const (
	bwFlagShard   = 1 << 0 // tuple carries a routed slot
	bwFlagReplica = 1 << 1 // dual-written replica copy: append to tail
)

const (
	bwHeaderLen = 6       // magic + kind + u32 length
	bwVersion   = 1       // HELLO payload
	bwMaxBatch  = 4096    // decoder-side cap on tuples per frame
	bwMaxNames  = 1 << 12 // decoder-side cap on schema columns
	// BwBatch is the sender-side tuples-per-frame target, matching the
	// engine's 32-tuple channel transport batches.
	BwBatch = 32
)

// BwFrame is one decoded frame envelope. Payload aliases the reader's
// buffer: it is valid only until the next read.
type BwFrame struct {
	Kind    byte
	Payload []byte
}

// newFrame starts a frame of the given kind whose payload will be exactly
// plen bytes: the header is written and the capacity is exact, so
// appending the payload never reallocates.
func newFrame(kind byte, plen int) []byte {
	f := make([]byte, 0, bwHeaderLen+plen)
	f = append(f, BwMagic, kind)
	return binary.LittleEndian.AppendUint32(f, uint32(plen))
}

// appendFrame wraps a payload in the frame envelope.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, BwMagic, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ---------------------------------------------------------------------------
// WireReader: per-message protocol dispatch

// WireReader reads a mixed protocol stream: each message is a JSON line
// or a binary frame, decided by its first byte. Both the returned line
// and frame payload are backed by reused buffers — valid only until the
// next call.
type WireReader struct {
	br     *bufio.Reader
	maxLen int
	line   []byte
	frame  []byte
	hdr    [bwHeaderLen]byte
}

// NewWireReader wraps r; maxLen bounds both line length and frame payload
// length (<= 0 selects 1 MiB, matching the JSON scanner's old limit).
func NewWireReader(r io.Reader, maxLen int) *WireReader {
	if maxLen <= 0 {
		maxLen = 1 << 20
	}
	return &WireReader{br: bufio.NewReaderSize(r, 64<<10), maxLen: maxLen}
}

// Next returns the next message: either line != nil (a JSON line, newline
// stripped, possibly empty) or a binary frame. io.EOF means a clean end
// of stream.
func (wr *WireReader) Next() (line []byte, fr BwFrame, err error) {
	first, err := wr.br.Peek(1)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return nil, BwFrame{}, err
	}
	if first[0] == BwMagic {
		fr, err = wr.readFrame()
		return nil, fr, err
	}
	line, err = wr.readLine()
	return line, BwFrame{}, err
}

func (wr *WireReader) readFrame() (BwFrame, error) {
	if _, err := io.ReadFull(wr.br, wr.hdr[:]); err != nil {
		return BwFrame{}, fmt.Errorf("bwire: truncated frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(wr.hdr[2:]))
	if n > wr.maxLen {
		return BwFrame{}, fmt.Errorf("bwire: frame payload %d bytes exceeds limit %d", n, wr.maxLen)
	}
	if cap(wr.frame) < n {
		wr.frame = make([]byte, n)
	}
	wr.frame = wr.frame[:n]
	if _, err := io.ReadFull(wr.br, wr.frame); err != nil {
		return BwFrame{}, fmt.Errorf("bwire: truncated frame payload: %w", err)
	}
	return BwFrame{Kind: wr.hdr[1], Payload: wr.frame}, nil
}

// readLine reads one newline-terminated line into the reused buffer,
// stripping the trailing \n (and \r). A non-terminated final line before
// EOF is still returned, matching bufio.Scanner.
func (wr *WireReader) readLine() ([]byte, error) {
	wr.line = wr.line[:0]
	for {
		chunk, err := wr.br.ReadSlice('\n')
		wr.line = append(wr.line, chunk...)
		if len(wr.line) > wr.maxLen {
			return nil, fmt.Errorf("bwire: line exceeds %d bytes", wr.maxLen)
		}
		switch err {
		case nil:
			return trimEOL(wr.line), nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(wr.line) > 0 {
				return trimEOL(wr.line), nil
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// ---------------------------------------------------------------------------
// Schemas and decoded tuples

// BwSchema is one interned tuple shape: the connection-scoped column
// table every TUPLES frame references. Name slices are sorted, exactly
// sized, and immutable once registered — decoded tuples alias them.
type BwSchema struct {
	ID        uint64
	Source    string
	KeyNames  []string
	AttrNames []string

	frame []byte // encoder side: the cached encoded SCHEMA frame
}

// EncodeFrame renders the schema's canonical SCHEMA frame.
func (sc *BwSchema) EncodeFrame() []byte {
	var w snap.Writer
	w.Uvarint(sc.ID)
	w.String(sc.Source)
	w.Uvarint(uint64(len(sc.KeyNames)))
	for _, n := range sc.KeyNames {
		w.String(n)
	}
	w.Uvarint(uint64(len(sc.AttrNames)))
	for _, n := range sc.AttrNames {
		w.String(n)
	}
	return appendFrame(nil, BwSchemaFrame, w.Bytes())
}

// BwTuple is one decoded tuple from a TUPLES frame. Keys and Attrs are
// positional, parallel to the schema's sorted name slices; both are
// decoder scratch, valid only until the next DecodeTuples call.
type BwTuple struct {
	Schema  *BwSchema
	T       int64
	Seq     uint64
	Shard   int // routed slot, -1 when absent
	Replica bool
	Keys    []int64
	Attrs   []Attr
}

// UTuple lifts a decoded tuple into the engine, the binary counterpart of
// ParseTuple: no per-tuple map, no sort — attribute and key names alias the
// schema's interned slices, sorted once when the schema was registered.
func (bt *BwTuple) UTuple() (*core.UTuple, error) {
	return buildUTuple(bt.T, bt.Schema.KeyNames, bt.Keys, bt.Schema.AttrNames, bt.Attrs)
}

// CheckTuple applies the ingest boundary's semantic checks to a decoded
// tuple without lifting it — the checks, and error texts, UTuple applies.
// The cluster router validates with it before routing, so a tuple it
// forwards never fails on its worker.
func CheckTuple(bt *BwTuple) error {
	return checkTuple(bt.T, bt.Schema.AttrNames, bt.Attrs)
}

func checkTuple(t int64, attrNames []string, attrs []Attr) error {
	if t < 0 {
		return fmt.Errorf("tuple t_ms %d is negative", t)
	}
	if len(attrNames) == 0 {
		return fmt.Errorf("tuple carries no attrs")
	}
	for i, a := range attrs {
		if err := a.check(); err != nil {
			return fmt.Errorf("attr %q: %w", attrNames[i], err)
		}
	}
	return nil
}

func buildUTuple(t int64, keyNames []string, keys []int64, attrNames []string, attrs []Attr) (*core.UTuple, error) {
	if err := checkTuple(t, attrNames, attrs); err != nil {
		return nil, err
	}
	// The values are staged on the stack and copied into the tuple's slots;
	// the names stay shared with the schema, and the key values are copied
	// too (keys is decoder scratch).
	var buf [8]dist.Val
	vals := buf[:0]
	for _, a := range attrs {
		vals = append(vals, a.val())
	}
	return core.NewUTupleShared(stream.Time(t), attrNames, vals, keyNames, keys), nil
}

// ---------------------------------------------------------------------------
// Decoder

// BwDecoder holds one connection's receive-side protocol state: the
// interned schema table plus reused scratch, so steady-state tuple
// decoding allocates nothing.
type BwDecoder struct {
	schemas map[uint64]*BwSchema
	rd      snap.Reader
	tuples  []BwTuple
	keys    []int64
	attrs   []Attr
}

// NewBwDecoder returns an empty decoder (one per connection).
func NewBwDecoder() *BwDecoder {
	return &BwDecoder{schemas: make(map[uint64]*BwSchema)}
}

// AddSchema registers a SCHEMA frame payload. Ids are write-once:
// redefining one is a protocol error (senders assign fresh ids).
func (d *BwDecoder) AddSchema(payload []byte) (*BwSchema, error) {
	r := snap.NewReader(payload)
	sc := &BwSchema{ID: r.Uvarint(), Source: r.String()}
	readNames := func(what string, allowEmpty bool) []string {
		n := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if n > bwMaxNames {
			r.Fail("%d %s columns exceed limit %d", n, what, bwMaxNames)
			return nil
		}
		names := make([]string, n)
		for i := range names {
			names[i] = r.String()
			if r.Err() != nil {
				return nil
			}
			if names[i] == "" && !allowEmpty {
				r.Fail("empty %s name", what)
				return nil
			}
			if i > 0 && names[i] <= names[i-1] {
				r.Fail("%s names not sorted/unique (%q after %q)", what, names[i], names[i-1])
				return nil
			}
		}
		return names
	}
	sc.KeyNames = readNames("key", true)
	sc.AttrNames = readNames("attr", false)
	if err := r.Close(); err != nil {
		return nil, err
	}
	if len(sc.AttrNames) == 0 {
		return nil, fmt.Errorf("bwire: schema %d carries no attrs", sc.ID)
	}
	if _, dup := d.schemas[sc.ID]; dup {
		return nil, fmt.Errorf("bwire: schema id %d redefined", sc.ID)
	}
	d.schemas[sc.ID] = sc
	return sc, nil
}

// DecodeTuples decodes a TUPLES frame payload. The returned slice and the
// Keys/Attrs it points into are decoder scratch, overwritten by the next
// call — lift what you keep (UTuple, EncodeTailTuple) before then.
func (d *BwDecoder) DecodeTuples(payload []byte) ([]BwTuple, error) {
	r := &d.rd
	r.Reset(payload)
	sc, ok := d.schemas[r.Uvarint()]
	if !ok {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("bwire: tuples frame references unknown schema")
	}
	count := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	nk, na := len(sc.KeyNames), len(sc.AttrNames)
	// Bound the scratch growth by what the payload could actually hold
	// before trusting count: flags + t + seq = 3 bytes minimum per tuple.
	minPer := uint64(3 + nk + 16*na)
	if count == 0 || count > bwMaxBatch || count*minPer > uint64(len(payload)) {
		return nil, fmt.Errorf("bwire: tuples frame count %d invalid for %d payload bytes", count, len(payload))
	}
	n := int(count)
	if cap(d.tuples) < n {
		d.tuples = make([]BwTuple, n)
	}
	if cap(d.keys) < n*nk {
		d.keys = make([]int64, n*nk)
	}
	if cap(d.attrs) < n*na {
		d.attrs = make([]Attr, n*na)
	}
	tuples, keys, attrs := d.tuples[:n], d.keys[:n*nk], d.attrs[:n*na]
	for i := 0; i < n; i++ {
		bt := &tuples[i]
		flags := r.U8()
		if flags&^(bwFlagShard|bwFlagReplica) != 0 {
			r.Fail("unknown tuple flags %#x", flags)
			break
		}
		bt.Schema = sc
		bt.T = r.Varint()
		bt.Seq = r.Uvarint()
		bt.Shard = -1
		if flags&bwFlagShard != 0 {
			bt.Shard = int(r.Uvarint())
		}
		bt.Replica = flags&bwFlagReplica != 0
		bt.Keys = keys[i*nk : (i+1)*nk : (i+1)*nk]
		for j := range bt.Keys {
			bt.Keys[j] = r.Varint()
		}
		bt.Attrs = attrs[i*na : (i+1)*na : (i+1)*na]
		for j := range bt.Attrs {
			bt.Attrs[j] = Attr{Mean: r.F64(), Std: r.F64()}
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return tuples, nil
}

// ---------------------------------------------------------------------------
// Encoder

// BwEncoder holds one connection's send-side protocol state: the schema
// intern table keyed by tuple shape. Not safe for concurrent use.
type BwEncoder struct {
	sigs  map[string]*BwSchema
	next  uint64
	sig   []byte   // scratch: shape signature
	names []string // scratch: name sorting
}

// NewBwEncoder returns an empty encoder (one per connection/session — the
// schema table is connection state and must be re-sent after a redial).
func NewBwEncoder() *BwEncoder {
	return &BwEncoder{sigs: make(map[string]*BwSchema)}
}

// Intern returns the schema for m's shape, registering it on first use.
// isNew means the schema's frame (Frame) must reach the peer before any
// TUPLES frame referencing it. Steady state (shape already interned) does
// not allocate.
func (e *BwEncoder) Intern(m *Msg) (sc *BwSchema, isNew bool, err error) {
	if len(m.Attrs) == 0 {
		return nil, false, fmt.Errorf("tuple carries no attrs")
	}
	e.names = e.names[:0]
	for k := range m.Keys {
		e.names = append(e.names, k)
	}
	sort.Strings(e.names)
	nk := len(e.names)
	for a := range m.Attrs {
		if a == "" {
			return nil, false, fmt.Errorf("tuple has an empty attr name")
		}
		e.names = append(e.names, a)
	}
	attrNames := e.names[nk:]
	sort.Strings(attrNames)
	sc, isNew = e.intern(m.Source, e.names[:nk], attrNames)
	return sc, isNew, nil
}

// InternSchema returns this encoder's schema for the shape of sc — a schema
// another connection's decoder (or encoder) registered — interning it on
// first use. Shapes are keyed exactly as Intern keys them, so a Msg and a
// decoded tuple of the same shape share one schema.
func (e *BwEncoder) InternSchema(sc *BwSchema) (out *BwSchema, isNew bool) {
	return e.intern(sc.Source, sc.KeyNames, sc.AttrNames)
}

// intern looks up (or registers, copying the sorted name slices) the
// schema for one shape.
func (e *BwEncoder) intern(source string, keyNames, attrNames []string) (*BwSchema, bool) {
	sig := appendLenPrefixed(e.sig[:0], source)
	sig = append(sig, 0)
	for _, k := range keyNames {
		sig = appendLenPrefixed(sig, k)
	}
	sig = append(sig, 1)
	for _, a := range attrNames {
		sig = appendLenPrefixed(sig, a)
	}
	e.sig = sig[:0]
	if sc := e.sigs[string(sig)]; sc != nil {
		return sc, false
	}
	e.next++
	sc := &BwSchema{
		ID:        e.next,
		Source:    source,
		KeyNames:  exactCopy(keyNames),
		AttrNames: exactCopy(attrNames),
	}
	sc.frame = sc.EncodeFrame()
	e.sigs[string(sig)] = sc
	return sc, true
}

// Positional converts a JSON-protocol tuple into the positional form a
// decoded TUPLES frame has: m's shape is interned, and bt (its Keys and
// Attrs backing arrays reused when large enough) is filled with m's values
// in the schema's column order, as an unrouted client tuple. Validation and
// error texts are ParseTuple's. LineDecoder calls it for a tuple line its
// scanner leaves to json.Unmarshal.
func (e *BwEncoder) Positional(m *Msg, bt *BwTuple) error {
	if m.T < 0 {
		return fmt.Errorf("tuple t_ms %d is negative", m.T)
	}
	sc, _, err := e.Intern(m)
	if err != nil {
		return err
	}
	keys, attrs := bt.Keys[:0], bt.Attrs[:0]
	for _, k := range sc.KeyNames {
		keys = append(keys, m.Keys[k])
	}
	for _, a := range sc.AttrNames {
		attrs = append(attrs, m.Attrs[a])
	}
	*bt = BwTuple{Schema: sc, T: m.T, Seq: m.Seq, Shard: -1, Keys: keys, Attrs: attrs}
	return CheckTuple(bt)
}

// Frame returns the schema's encoded SCHEMA frame (cached).
func (sc *BwSchema) Frame() []byte {
	if sc.frame == nil {
		sc.frame = sc.EncodeFrame()
	}
	return sc.frame
}

func appendLenPrefixed(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func exactCopy(names []string) []string {
	out := make([]string, len(names))
	copy(out, names)
	return out
}

// appendTupleBody appends one tuple's batch-frame body for schema sc,
// reading values from the Msg by the schema's sorted column order. The
// caller guarantees m has exactly sc's shape (it came from Intern(m)).
func appendTupleBody(w *snap.Writer, sc *BwSchema, m *Msg, shard int, replica bool) {
	var flags uint8
	if shard >= 0 {
		flags |= bwFlagShard
	}
	if replica {
		flags |= bwFlagReplica
	}
	w.U8(flags)
	w.Varint(m.T)
	w.Uvarint(m.Seq)
	if shard >= 0 {
		w.Uvarint(uint64(shard))
	}
	for _, k := range sc.KeyNames {
		w.Varint(m.Keys[k])
	}
	for _, a := range sc.AttrNames {
		at := m.Attrs[a]
		w.F64(at.Mean)
		w.F64(at.Std)
	}
}

// EncodeTupleFrame renders a single Msg as a one-tuple TUPLES frame. The
// router does not use it — its links carry per-slot batches built with
// TupleBatch — but it is the plain single-tuple encoder, and the repository
// benchmark's server.encode_bin ledger row times it.
func EncodeTupleFrame(sc *BwSchema, m *Msg, shard int, replica bool) []byte {
	var w snap.Writer
	w.Uvarint(sc.ID)
	w.Uvarint(1)
	appendTupleBody(&w, sc, m, shard, replica)
	return appendFrame(nil, BwTuples, w.Bytes())
}

// EncodeTuplesFrame renders decoded tuples back into a canonical TUPLES
// frame; all tuples must share one schema. This is the decode→encode
// direction (tests, fuzzing) — senders encode from Msgs or TupleBatch.
func EncodeTuplesFrame(sc *BwSchema, bts []BwTuple) []byte {
	var w snap.Writer
	w.Uvarint(sc.ID)
	w.Uvarint(uint64(len(bts)))
	for i := range bts {
		bt := &bts[i]
		appendPositionalBody(&w, bt, bt.Seq, bt.Shard, bt.Replica)
	}
	return appendFrame(nil, BwTuples, w.Bytes())
}

// appendPositionalBody appends one decoded tuple's batch-frame body with
// the given routing stamp (seq, slot or -1, replica flag) in place of its
// own.
func appendPositionalBody(w *snap.Writer, bt *BwTuple, seq uint64, shard int, replica bool) {
	var flags uint8
	if shard >= 0 {
		flags |= bwFlagShard
	}
	if replica {
		flags |= bwFlagReplica
	}
	w.U8(flags)
	w.Varint(bt.T)
	w.Uvarint(seq)
	if shard >= 0 {
		w.Uvarint(uint64(shard))
	}
	for _, k := range bt.Keys {
		w.Varint(k)
	}
	for _, a := range bt.Attrs {
		w.F64(a.Mean)
		w.F64(a.Std)
	}
}

// TupleBatch accumulates routed tuple bodies for one TUPLES frame against
// one schema: the cluster router keeps one per slot and link role, filling
// it tuple by tuple and taking the frame at each flush. The body buffer is
// reused across frames.
type TupleBatch struct {
	sc *BwSchema
	n  int
	w  snap.Writer
}

// Add appends bt's body, stamped with seq, slot and the replica flag.
// Every tuple of one frame must share a schema: when sc differs from the
// open frame's, the caller takes the frame first.
func (b *TupleBatch) Add(sc *BwSchema, bt *BwTuple, seq uint64, slot int, replica bool) {
	if b.n == 0 {
		b.sc = sc
		b.w.Reset()
	}
	appendPositionalBody(&b.w, bt, seq, slot, replica)
	b.n++
}

// Len is the number of tuples in the open frame.
func (b *TupleBatch) Len() int { return b.n }

// Schema is the open frame's schema (nil when empty).
func (b *TupleBatch) Schema() *BwSchema {
	if b.n == 0 {
		return nil
	}
	return b.sc
}

// Take returns the open frame, allocated at exactly its encoded size, and
// empties the batch (nil when there is nothing to take).
func (b *TupleBatch) Take() []byte {
	if b.n == 0 {
		return nil
	}
	bodies := b.w.Bytes()
	id, count := b.sc.ID, uint64(b.n)
	plen := varintLen(id) + varintLen(count) + len(bodies)
	frame := newFrame(BwTuples, plen)
	frame = binary.AppendUvarint(frame, id)
	frame = binary.AppendUvarint(frame, count)
	frame = append(frame, bodies...)
	b.n, b.sc = 0, nil
	return frame
}

// BwBatcher accumulates tuples into batched TUPLES frames (schema frames
// interleaved as new shapes appear): the client-side ingest encoder.
type BwBatcher struct {
	enc *BwEncoder
	out []byte
	cur *BwSchema
	n   int
	w   snap.Writer
}

// NewBwBatcher returns a batcher with a fresh schema table.
func NewBwBatcher() *BwBatcher { return &BwBatcher{enc: NewBwEncoder()} }

// Add appends one tuple, flushing the open frame when the schema changes
// or it reaches BwBatch tuples.
func (b *BwBatcher) Add(m Msg) error {
	sc, isNew, err := b.enc.Intern(&m)
	if err != nil {
		return err
	}
	if b.cur != nil && (sc != b.cur || b.n >= BwBatch) {
		b.Flush()
	}
	if isNew {
		b.out = append(b.out, sc.Frame()...)
	}
	if b.cur == nil {
		b.cur = sc
		b.w.Reset()
		b.w.Uvarint(sc.ID)
	}
	shard := -1
	if m.Shard != nil {
		shard = *m.Shard
	}
	appendTupleBody(&b.w, sc, &m, shard, m.Replica)
	b.n++
	return nil
}

// Flush closes the open TUPLES frame, if any, into the output buffer.
func (b *BwBatcher) Flush() {
	if b.cur == nil {
		return
	}
	// The tuple count sits between the schema id and the bodies, so the
	// frame is assembled here, where the count is known.
	b.out = assembleTuplesFrame(b.out, b.cur.ID, b.n, b.w.Bytes())
	b.cur, b.n = nil, 0
}

// assembleTuplesFrame wraps pre-encoded tuple bodies (prefixed in buf by
// the schema id written at batch start) into a complete frame.
func assembleTuplesFrame(dst []byte, schemaID uint64, count int, buf []byte) []byte {
	idLen := varintLen(schemaID)
	bodies := buf[idLen:]
	var pre [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], schemaID)
	n += binary.PutUvarint(pre[n:], uint64(count))
	dst = append(dst, BwMagic, BwTuples)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n+len(bodies)))
	dst = append(dst, pre[:n]...)
	return append(dst, bodies...)
}

func varintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Take flushes and hands the accumulated frame bytes to the caller,
// resetting the batcher's output (the schema table persists).
func (b *BwBatcher) Take() []byte {
	b.Flush()
	out := b.out
	b.out = nil
	return out
}

// ---------------------------------------------------------------------------
// Control frames

// EncodeBwHello renders the protocol announcement frame.
func EncodeBwHello() []byte {
	return appendFrame(nil, BwHello, []byte{bwVersion})
}

// decodeBwHello validates a HELLO payload.
func decodeBwHello(payload []byte) error {
	if len(payload) != 1 || payload[0] != bwVersion {
		return fmt.Errorf("bwire: bad hello payload % x", payload)
	}
	return nil
}

// BwCloseMsg is a decoded window-close punctuation.
type BwCloseMsg struct {
	Source string
	T      int64
	Seq    uint64
}

// EncodeBwClose renders a close punctuation frame. Closes are per window,
// not per tuple, so the source name travels inline — no schema table
// involvement, and the frame is valid on any connection.
func EncodeBwClose(source string, t int64, seq uint64) []byte {
	var w snap.Writer
	w.String(source)
	w.Varint(t)
	w.Uvarint(seq)
	return appendFrame(nil, BwClose, w.Bytes())
}

// DecodeBwClose reverses EncodeBwClose.
func DecodeBwClose(payload []byte) (BwCloseMsg, error) {
	r := snap.NewReader(payload)
	c := BwCloseMsg{Source: r.String(), T: r.Varint(), Seq: r.Uvarint()}
	return c, r.Close()
}

// EncodeBwPart renders a partial-aggregate frame, the only way a worker
// ships a partial (or forwarded close) back to the router. The frame is
// allocated at exactly its encoded size and copies data, so data may be
// the caller's reused scratch.
func EncodeBwPart(slot int, data []byte) []byte {
	plen := varintLen(uint64(slot)) + varintLen(uint64(len(data))) + len(data)
	frame := newFrame(BwPart, plen)
	frame = binary.AppendUvarint(frame, uint64(slot))
	frame = binary.AppendUvarint(frame, uint64(len(data)))
	return append(frame, data...)
}

// DecodeBwPart reverses EncodeBwPart. data aliases payload — decode it
// (core.PartCodec.Decode copies) before the buffer is reused.
func DecodeBwPart(payload []byte) (slot int, data []byte, err error) {
	r := snap.NewReader(payload)
	slot = int(r.Uvarint())
	data = r.BlobRef()
	return slot, data, r.Close()
}

// ---------------------------------------------------------------------------
// Tail records

// BwTailMsg is a decoded self-contained tail record.
type BwTailMsg struct {
	Source    string
	T         int64
	Seq       uint64
	KeyNames  []string
	Keys      []int64
	AttrNames []string
	Attrs     []Attr
}

// UTuple lifts the tail record into the engine for replay.
func (tm *BwTailMsg) UTuple() (*core.UTuple, error) {
	return buildUTuple(tm.T, tm.KeyNames, tm.Keys, tm.AttrNames, tm.Attrs)
}

// EncodeTailTuple renders a decoded replica tuple as a self-contained
// BwTail record: replica replay tails outlive the connection (and so the
// schema table) that delivered the tuple, and a promote must replay them
// standalone. The record is sized first and allocated once, exactly: tails
// hold one per replicated tuple until the next checkpoint trims them.
func EncodeTailTuple(bt *BwTuple) []byte {
	sc := bt.Schema
	plen := strLen(sc.Source) + varintLen(zigzag(bt.T)) + varintLen(bt.Seq) +
		varintLen(uint64(len(bt.Keys))) + varintLen(uint64(len(bt.Attrs))) + 16*len(bt.Attrs)
	for i, k := range sc.KeyNames {
		plen += strLen(k) + varintLen(zigzag(bt.Keys[i]))
	}
	for _, a := range sc.AttrNames {
		plen += strLen(a)
	}
	rec := appendLenPrefixed(newFrame(BwTail, plen), sc.Source)
	rec = binary.AppendVarint(rec, bt.T)
	rec = binary.AppendUvarint(rec, bt.Seq)
	rec = binary.AppendUvarint(rec, uint64(len(bt.Keys)))
	for i, k := range sc.KeyNames {
		rec = appendLenPrefixed(rec, k)
		rec = binary.AppendVarint(rec, bt.Keys[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(bt.Attrs)))
	for i, a := range sc.AttrNames {
		rec = appendLenPrefixed(rec, a)
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(bt.Attrs[i].Mean))
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(bt.Attrs[i].Std))
	}
	return rec
}

// strLen is the encoded size of a length-prefixed string.
func strLen(s string) int { return varintLen(uint64(len(s))) + len(s) }

// zigzag maps a signed varint value to the unsigned one it is encoded as.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// DecodeTailTuple reverses EncodeTailTuple. Replay is cold (one promote
// per failover), so it allocates freely.
func DecodeTailTuple(payload []byte) (BwTailMsg, error) {
	r := snap.NewReader(payload)
	tm := BwTailMsg{Source: r.String(), T: r.Varint(), Seq: r.Uvarint()}
	nk := r.Uvarint()
	if r.Err() == nil && nk > bwMaxNames {
		r.Fail("%d key columns exceed limit %d", nk, bwMaxNames)
	}
	if r.Err() == nil && nk > 0 {
		tm.KeyNames = make([]string, nk)
		tm.Keys = make([]int64, nk)
		for i := range tm.KeyNames {
			tm.KeyNames[i] = r.String()
			tm.Keys[i] = r.Varint()
		}
	}
	na := r.Uvarint()
	if r.Err() == nil && na > bwMaxNames {
		r.Fail("%d attr columns exceed limit %d", na, bwMaxNames)
	}
	if r.Err() == nil && na > 0 {
		tm.AttrNames = make([]string, na)
		tm.Attrs = make([]Attr, na)
		for i := range tm.AttrNames {
			tm.AttrNames[i] = r.String()
			tm.Attrs[i] = Attr{Mean: r.F64(), Std: r.F64()}
		}
	}
	return tm, r.Close()
}

// SplitFrame splits a standalone encoded frame (as stored in replay
// tails) into kind and payload.
func SplitFrame(rec []byte) (kind byte, payload []byte, err error) {
	if len(rec) < bwHeaderLen || rec[0] != BwMagic {
		return 0, nil, fmt.Errorf("bwire: not a frame")
	}
	n := int(binary.LittleEndian.Uint32(rec[2:]))
	if len(rec) != bwHeaderLen+n {
		return 0, nil, fmt.Errorf("bwire: frame length %d does not match record %d", n, len(rec))
	}
	return rec[1], rec[bwHeaderLen:], nil
}
