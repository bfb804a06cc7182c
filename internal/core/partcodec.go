package core

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/snap"
	"repro/internal/stream"
)

// This file is the cluster link codec: how a worker ships its partial
// aggregates, and the closes it forwards, to the router's merge. It is a
// second groupPartial codec beside the checkpoint one (snapshot.go) because
// the two answer different questions. A checkpoint must restore every byte
// it ever wrote, so its layout is frozen; a link frame is never persisted,
// so it can carry only what the merge reads:
//
//   - Carriers are projected. The merge's Finalize and the lineage union
//     read the aggregate's own attributes and keys, plus the carrier's TS,
//     ID, existence and lineage; sum, quantile and top-k declare their
//     inputs (carried), and any other aggregate ships the whole carrier.
//   - Names travel once per frame. A frame opens with a table of carrier
//     shapes (attribute names, then key names); each contribution names its
//     shape by index and lists its values positionally.
//   - A moment strategy's gated contribution ships as its (mean, variance)
//     bits plus the position of the carrier attribute it gates. The decoder
//     rebuilds the same lazily gated value the worker's Prepare built,
//     without ever materialising the gate mixture on either side. Every
//     other prepared distribution goes through dist.Encode.
//   - A lineage equal to the carrier's own ID is one flag bit.
//
// Frames are self-contained: no frame depends on an earlier one, so a
// restarted router, a failover replay and a promoted instance need no link
// history. The decoder interns each frame's shape table by its bytes, so the
// carriers of every frame with an equal table share one names slice.

// PartCodec encodes partial-aggregate tuples and forwarded window closes
// for the worker → router link, and decodes them on the router. One value
// serves one direction: a worker's part emitter encodes with it, a router
// link's reader decodes with it; both reuse its scratch across frames. Not
// safe for concurrent use.
type PartCodec struct {
	// Encode scratch. The frame is assembled in buf from the header (hdr)
	// and the contributions (body); names holds every shape's names back to
	// back: the attribute names, then the key names.
	hdr, tab, body snap.Writer
	buf            []byte
	names          []string
	shapes         []shapeRef
	cand           []string
	proj           []string
	ai, ki         []int

	// Decode state.
	r      snap.Reader
	tables map[string][]partShape
}

// Part frame kinds (the codec's first byte).
const (
	partGroup uint8 = 1 // a groupPartial
	partClose uint8 = 2 // a forwarded window close
)

// Contribution flag bits.
const (
	partDMoment  = 1 << 0 // D is a momentDist gating a carrier attribute
	partDEncoded = 1 << 1 // D follows in dist.Encode form
	partLinSelf  = 1 << 2 // the carrier's lineage is exactly {ID}
	partFlagMask = partDMoment | partDEncoded | partLinSelf
)

// partMinContrib is the fewest bytes a contribution encodes to: one-byte
// Seq, flags, aux count, shape, TS and ID, and the P and Exist floats.
const partMinContrib = 22

// partTableCap bounds the decoder's shape-table intern map; a peer that
// keeps sending new tables resets it instead of growing it.
const partTableCap = 64

// shapeRef locates one encoder shape in PartCodec.names.
type shapeRef struct{ off, na, nk int }

// partShape is one decoded carrier shape. attrs has no spare capacity, so a
// carrier's later SetAttr copies instead of writing into the shared table.
type partShape struct {
	attrs, keys []string
}

// carrierProjector is implemented by the aggregates whose merge side reads a
// known part of each carrier. carried appends the attribute names Finalize
// reads to dst and returns the certain key it reads ("" for none).
type carrierProjector interface {
	carried(dst []string) (attrs []string, key string)
}

func (a *sumAgg) carried(dst []string) ([]string, string)      { return append(dst, a.attr), "" }
func (a *quantileAgg) carried(dst []string) ([]string, string) { return append(dst, a.attr), "" }
func (a *topkAgg) carried(dst []string) ([]string, string) {
	return append(dst, a.attrs...), a.opts.Label
}

// Encode serializes a partial-aggregate tuple or a forwarded window close.
// The returned bytes alias the codec's buffer: valid only until the next
// call.
func (c *PartCodec) Encode(t *stream.Tuple) ([]byte, error) {
	c.hdr.Reset()
	if end, ok := stream.WindowCloseOf(t); ok {
		seq, _ := stream.CloseSeq(t)
		c.hdr.U8(partClose)
		c.hdr.Varint(int64(end))
		c.hdr.Uvarint(seq)
		c.hdr.Uvarint(t.Seq)
		return c.hdr.Bytes(), nil
	}
	if t.Schema() != partialSchema {
		return nil, fmt.Errorf("core: part codec: tuple is neither a partial nor a window close")
	}
	gp := t.Fields[0].(*groupPartial)
	if t.TS != gp.end {
		return nil, fmt.Errorf("core: part codec: partial stamped %d for window end %d", t.TS, gp.end)
	}
	if err := c.encodePartial(t.Seq, gp); err != nil {
		return nil, err
	}
	c.buf = append(append(c.buf[:0], c.hdr.Bytes()...), c.body.Bytes()...)
	return c.buf, nil
}

// encodePartial writes a partial frame: into c.hdr the header, the shape
// table and the backing-array totals, into c.body the contributions.
func (c *PartCodec) encodePartial(seq uint64, gp *groupPartial) error {
	c.body.Reset()
	c.names, c.shapes = c.names[:0], c.shapes[:0]
	label, project := "", false
	if p, ok := gp.agg.(carrierProjector); ok {
		c.proj, label = p.carried(c.proj[:0])
		project = true
	}
	var nAttr, nLin, nKey, nAux int
	for _, pc := range gp.contribs {
		u := pc.U
		c.projectCarrier(u, project, label)
		shape := c.shapeOf()
		ids := u.Lin.IDs()
		flags := uint8(0)
		if len(ids) == 1 && ids[0] == u.ID {
			flags |= partLinSelf
		}
		pos := -1
		m, moment := pc.D.(*momentDist)
		if moment && m.p == pc.P {
			for j, i := range c.ai {
				if sameVal(u.val(i), m.v) {
					pos = j
					break
				}
			}
		}
		switch {
		case pos >= 0:
			flags |= partDMoment
		case pc.D != nil:
			flags |= partDEncoded
		}
		w := &c.body
		w.Uvarint(pc.Seq)
		w.F64(pc.P)
		w.U8(flags)
		w.Uvarint(uint64(len(pc.Aux)))
		for _, x := range pc.Aux {
			w.F64(x)
		}
		if pos >= 0 {
			w.Uvarint(uint64(pos))
			w.F64(m.mean)
			w.F64(m.variance)
		} else if pc.D != nil {
			if err := dist.Encode(w, pc.D); err != nil {
				return err
			}
		}
		w.Uvarint(uint64(shape))
		w.Varint(int64(u.TS))
		w.Uvarint(u.ID)
		w.F64(u.Exist)
		for _, i := range c.ai {
			if err := dist.EncodeVal(w, u.val(i)); err != nil {
				return fmt.Errorf("attr %q: %w", u.names[i], err)
			}
		}
		if flags&partLinSelf == 0 {
			w.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				w.Uvarint(id)
			}
			nLin += len(ids)
		} else {
			nLin++
		}
		for _, i := range c.ki {
			w.Varint(u.Keys.vals[i])
		}
		nAttr += len(c.ai)
		nKey += len(c.ki)
		nAux += len(pc.Aux)
	}
	c.tab.Reset()
	c.tab.Uvarint(uint64(len(c.shapes)))
	for _, s := range c.shapes {
		c.tab.Uvarint(uint64(s.na))
		for _, n := range c.names[s.off : s.off+s.na] {
			c.tab.String(n)
		}
		c.tab.Uvarint(uint64(s.nk))
		for _, n := range c.names[s.off+s.na : s.off+s.na+s.nk] {
			c.tab.String(n)
		}
	}
	h := &c.hdr
	h.U8(partGroup)
	h.Uvarint(seq)
	h.Varint(int64(gp.end))
	h.String(gp.group)
	h.Blob(c.tab.Bytes())
	h.Uvarint(uint64(len(gp.contribs)))
	h.Uvarint(uint64(nAttr))
	h.Uvarint(uint64(nLin))
	h.Uvarint(uint64(nKey))
	h.Uvarint(uint64(nAux))
	return nil
}

// projectCarrier fills c.ai and c.ki with the positions of u's attributes
// and keys that travel: the projection's names u carries (in projection
// order), or everything when there is no projection. The candidate shape's
// names land in c.cand.
func (c *PartCodec) projectCarrier(u *UTuple, project bool, label string) {
	c.ai, c.ki, c.cand = c.ai[:0], c.ki[:0], c.cand[:0]
	if !project {
		for i, n := range u.names {
			c.ai = append(c.ai, i)
			c.cand = append(c.cand, n)
		}
		for i, n := range u.Keys.names {
			c.ki = append(c.ki, i)
			c.cand = append(c.cand, n)
		}
		return
	}
	for _, n := range c.proj {
		for i, have := range u.names {
			if have == n {
				c.ai = append(c.ai, i)
				c.cand = append(c.cand, n)
				break
			}
		}
	}
	if label == "" {
		return
	}
	for i, have := range u.Keys.names {
		if have == label {
			c.ki = append(c.ki, i)
			c.cand = append(c.cand, label)
			break
		}
	}
}

// shapeOf returns the index of the candidate shape (c.cand split at
// len(c.ai)) in the frame's table, adding it on first sight.
func (c *PartCodec) shapeOf() int {
	na := len(c.ai)
	for i := len(c.shapes) - 1; i >= 0; i-- {
		s := c.shapes[i]
		if s.na == na && slices.Equal(c.names[s.off:s.off+s.na+s.nk], c.cand) {
			return i
		}
	}
	c.shapes = append(c.shapes, shapeRef{off: len(c.names), na: na, nk: len(c.ki)})
	c.names = append(c.names, c.cand...)
	return len(c.shapes) - 1
}

// sameVal reports whether a and b are one distribution: equal value forms
// (one family, since σ tells a Normal from a point mass), or boxed values
// that are the same pointer or equal values of one comparable type.
// Uncomparable values are never the same, so the comparison cannot panic.
func sameVal(a, b dist.Val) bool {
	if a.D == nil || b.D == nil {
		return a.D == nil && b.D == nil && a.Mu == b.Mu && a.Sigma == b.Sigma
	}
	ta := reflect.TypeOf(a.D)
	return ta == reflect.TypeOf(b.D) && ta.Comparable() && a.D == b.D
}

// Decode reverses Encode. The result shares nothing with data; a partial's
// carriers share the codec's interned name tables, which nothing writes.
func (c *PartCodec) Decode(data []byte) (*stream.Tuple, error) {
	r := &c.r
	r.Reset(data)
	switch kind := r.U8(); {
	case r.Err() != nil:
		return nil, r.Err()
	case kind == partClose:
		end := stream.Time(r.Varint())
		cseq := r.Uvarint()
		seq := r.Uvarint()
		if err := r.Close(); err != nil {
			return nil, err
		}
		t := stream.NewWindowClose(end, cseq)
		t.Seq = seq
		return t, nil
	case kind == partGroup:
		seq := r.Uvarint()
		gp := c.decodePartial(r)
		if err := r.Close(); err != nil {
			return nil, err
		}
		t := stream.NewTuple(partialSchema, gp.end, gp)
		t.Seq = seq
		return t, nil
	default:
		return nil, fmt.Errorf("core: part frame kind %d", kind)
	}
}

// decodePartial reads a partial frame after its kind byte and tuple Seq.
// Every carrier, attribute, lineage id, key value and aux float lands in one
// backing array per kind, sized by the frame's totals; the slices handed out
// have no spare capacity. On malformed input it records the error on r.
func (c *PartCodec) decodePartial(r *snap.Reader) *groupPartial {
	gp := &groupPartial{end: stream.Time(r.Varint()), group: r.String()}
	shapes := c.internTable(r, r.BlobRef())
	n := r.Len()
	nAttr, nLin, nKey, nAux := r.Len(), r.Len(), r.Len(), r.Len()
	if r.Err() != nil {
		return gp
	}
	// Bound the allocations by what the remaining bytes can hold: every
	// contribution takes partMinContrib bytes, every attribute two, every
	// aux float eight, every key value and unflagged lineage id one.
	if rem := r.Remaining(); n > rem/partMinContrib || nAttr > rem/2 || nAux > rem/8 || nKey > rem || nLin > rem+n {
		r.Fail("part: totals %d/%d/%d/%d/%d exceed the frame's %d bytes", n, nAttr, nLin, nKey, nAux, rem)
		return gp
	}
	cs := make([]PartialContrib, n)
	us := make([]UTuple, n)
	vals := make([]gauss, nAttr)
	lin := make([]uint64, nLin)
	var keys []int64
	if nKey > 0 {
		keys = make([]int64, nKey)
	}
	var aux []float64
	if nAux > 0 {
		aux = make([]float64, nAux)
	}
	var moments []momentDist // made at the first moment contribution
	var ao, lo, ko, xo int   // offsets into the backing arrays
	for i := range cs {
		pc, u := &cs[i], &us[i]
		pc.U = u
		pc.Seq = r.Uvarint()
		pc.P = r.F64()
		flags := r.U8()
		na := r.Len()
		if r.Err() != nil {
			return gp
		}
		if !(pc.P >= 0 && pc.P <= 1) {
			r.Fail("part: contribution %d probability %v outside [0, 1]", i, pc.P)
			return gp
		}
		if flags&^partFlagMask != 0 || flags&(partDMoment|partDEncoded) == partDMoment|partDEncoded {
			r.Fail("part: contribution %d flags %#x", i, flags)
			return gp
		}
		if na > nAux-xo {
			r.Fail("part: aux overruns its total %d", nAux)
			return gp
		}
		if na > 0 {
			pc.Aux = aux[xo : xo+na : xo+na]
			for j := range pc.Aux {
				pc.Aux[j] = r.F64()
			}
			xo += na
		}
		var pos uint64
		var mean, variance float64
		switch {
		case flags&partDMoment != 0:
			pos = r.Uvarint()
			mean, variance = r.F64(), r.F64()
		case flags&partDEncoded != 0:
			pc.D = dist.Decode(r)
		}
		si := r.Uvarint()
		u.TS = stream.Time(r.Varint())
		u.ID = r.Uvarint()
		u.Exist = r.F64()
		if r.Err() != nil {
			return gp
		}
		if si >= uint64(len(shapes)) {
			r.Fail("part: shape %d of %d", si, len(shapes))
			return gp
		}
		sh := shapes[si]
		if len(sh.attrs) > nAttr-ao || len(sh.keys) > nKey-ko {
			r.Fail("part: carrier %d overruns the attribute or key total", i)
			return gp
		}
		u.names = sh.attrs
		u.vals = vals[ao : ao+len(sh.attrs) : ao+len(sh.attrs)]
		ao += len(sh.attrs)
		for j := range u.vals {
			u.setVal(j, dist.DecodeVal(r))
		}
		if flags&partLinSelf != 0 {
			if lo >= nLin {
				r.Fail("part: lineage overruns its total %d", nLin)
				return gp
			}
			lin[lo] = u.ID
			u.Lin, _ = lineage.Adopt(lin[lo : lo+1 : lo+1]) // one id is always in order
			lo++
		} else {
			nl := r.Len()
			if nl > nLin-lo {
				r.Fail("part: lineage overruns its total %d", nLin)
				return gp
			}
			ids := lin[lo : lo+nl : lo+nl]
			for j := range ids {
				ids[j] = r.Uvarint()
			}
			lo += nl
			set, err := lineage.Adopt(ids)
			if err != nil && r.Err() == nil {
				r.Fail("part: contribution %d %v", i, err)
			}
			u.Lin = set
		}
		if len(sh.keys) > 0 {
			vals := keys[ko : ko+len(sh.keys) : ko+len(sh.keys)]
			for j := range vals {
				vals[j] = r.Varint()
			}
			ko += len(vals)
			u.Keys = SharedKeys(sh.keys, vals)
		}
		if r.Err() != nil {
			return gp
		}
		if flags&partDMoment != 0 {
			if pos >= uint64(len(u.vals)) {
				r.Fail("part: moment attribute %d of %d", pos, len(u.vals))
				return gp
			}
			if moments == nil {
				moments = make([]momentDist, n)
			}
			m := &moments[i]
			*m = momentDist{v: u.val(int(pos)), p: pc.P, mean: mean, variance: variance}
			pc.D = m
		}
	}
	if ao != nAttr || lo != nLin || ko != nKey || xo != nAux {
		r.Fail("part: totals %d/%d/%d/%d, contributions used %d/%d/%d/%d", nAttr, nLin, nKey, nAux, ao, lo, ko, xo)
		return gp
	}
	gp.contribs = refs(cs)
	return gp
}

// internTable resolves a frame's shape table: from the intern map when an
// equal table was seen before (the lookup on string(tab) allocates
// nothing), else by decoding it.
func (c *PartCodec) internTable(r *snap.Reader, tab []byte) []partShape {
	if r.Err() != nil {
		return nil
	}
	if shapes, ok := c.tables[string(tab)]; ok {
		return shapes
	}
	tr := snap.NewReader(tab)
	shapes := make([]partShape, tr.Len())
	for i := range shapes {
		na := tr.Len()
		attrs := make([]string, na)
		for j := range attrs {
			attrs[j] = tr.String()
		}
		nk := tr.Len()
		var keys []string
		if nk > 0 {
			keys = make([]string, nk)
		}
		for j := range keys {
			keys[j] = tr.String()
			if j > 0 && keys[j] <= keys[j-1] && tr.Err() == nil {
				tr.Fail("key names not sorted/unique (%q after %q)", keys[j], keys[j-1])
			}
		}
		if tr.Err() != nil {
			break
		}
		shapes[i] = partShape{attrs: attrs, keys: keys}
	}
	if err := tr.Close(); err != nil {
		r.Fail("part: shape table: %v", err)
		return nil
	}
	if c.tables == nil || len(c.tables) >= partTableCap {
		c.tables = make(map[string][]partShape)
	}
	c.tables[string(tab)] = shapes
	return shapes
}
