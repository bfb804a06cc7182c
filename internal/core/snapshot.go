package core

import (
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/snap"
	"repro/internal/stream"
)

// Durable-state codecs for the uncertain-tuple layer. Two kinds of state
// live here:
//
//   - Values flowing inside stream tuples (*UTuple carriers, shard
//     partials) register codecs with the stream tuple codec, so window
//     buffers and merge queues serialize transparently.
//   - The incremental window consumer (incWindowAgg) restores by REPLAY:
//     its accumulators, dedup map, reference counts and lineage multisets
//     are fully derivable from the window ring the delta-window operator
//     snapshots, so RestoreState re-runs admission and contribution over
//     the restored residents without emitting. Replay reproduces the
//     live-contribution insertion order (arrival order of the announced
//     residents) and therefore the exact Result() bits.

func init() {
	stream.RegisterSchema(utupleSchema)
	stream.RegisterSchema(groupedSchema)
	stream.RegisterSchema(partialSchema)
	stream.RegisterValueCodec(valTagUTuple, (*UTuple)(nil),
		func(w *snap.Writer, v stream.Value) error { return encodeUTuple(w, v.(*UTuple)) },
		func(r *snap.Reader) (stream.Value, error) { return decodeUTuple(r) },
	)
	stream.RegisterValueCodec(valTagPartial, (*groupPartial)(nil),
		func(w *snap.Writer, v stream.Value) error { return encodeGroupPartial(w, v.(*groupPartial)) },
		func(r *snap.Reader) (stream.Value, error) { return decodeGroupPartial(r) },
	)
	dist.RegisterCodec(distTagMoment, momentDist{},
		func(w *snap.Writer, d dist.Dist) error {
			m := d.(momentDist)
			w.F64(m.mean)
			w.F64(m.variance)
			return dist.Encode(w, m.gated())
		},
		func(r *snap.Reader) (dist.Dist, error) {
			// The gate is already folded into the decoded mixture, so p = 1
			// and re-encoding writes the same bytes.
			m := momentDist{mean: r.F64(), variance: r.F64(), p: 1}
			m.v = dist.Decode(r)
			return m, r.Err()
		},
	)
}

// Registered codec tags (stream value tags must be >= 64, dist extension
// tags >= 128).
const (
	valTagUTuple  uint8 = 64
	valTagPartial uint8 = 65
	distTagMoment uint8 = 128
)

// --- UTuple ---

const utupleSnapV1 = 1

func encodeUTuple(w *snap.Writer, u *UTuple) error {
	w.U8(utupleSnapV1)
	w.Varint(int64(u.TS))
	w.Uvarint(u.ID)
	w.Uvarint(uint64(len(u.names)))
	for i, n := range u.names {
		w.String(n)
		if err := dist.Encode(w, u.attrs[i]); err != nil {
			return fmt.Errorf("attr %q: %w", n, err)
		}
	}
	w.F64(u.Exist)
	ids := u.Lin.IDs()
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uvarint(id)
	}
	// Keys go out in ascending name order — the order a KeySet keeps them
	// in, and the order decode insists on.
	w.Uvarint(uint64(u.Keys.Len()))
	for k, v := range u.Keys.Each() {
		w.String(k)
		w.Varint(v)
	}
	return nil
}

func decodeUTuple(r *snap.Reader) (*UTuple, error) {
	if v := r.U8(); v != utupleSnapV1 && r.Err() == nil {
		r.Fail("utuple snapshot version %d", v)
	}
	u := &UTuple{}
	u.TS = stream.Time(r.Varint())
	u.ID = r.Uvarint()
	na := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	u.names = make([]string, na)
	u.attrs = make([]dist.Dist, na)
	for i := 0; i < na; i++ {
		u.names[i] = r.String()
		u.attrs[i] = dist.Decode(r)
	}
	u.Exist = r.F64()
	nl := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	ids := make([]uint64, nl)
	for i := range ids {
		ids[i] = r.Uvarint()
	}
	nk := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nk > 0 {
		names := make([]string, nk)
		vals := make([]int64, nk)
		for i := range names {
			names[i] = r.String()
			vals[i] = r.Varint()
			if i > 0 && names[i] <= names[i-1] && r.Err() == nil {
				r.Fail("utuple key names not sorted/unique (%q after %q)", names[i], names[i-1])
			}
		}
		if r.Err() == nil {
			u.Keys = SharedKeys(names, vals)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	lin, err := lineage.Adopt(ids)
	if err != nil {
		r.Fail("utuple %v", err)
		return nil, r.Err()
	}
	u.Lin = lin
	return u, nil
}

// --- shard partials ---

// partialSnapV2 generalized the contribution layout for pluggable aggregates
// (PR 10): gate probability and aux payload ride alongside the optional
// prepared distribution.
const partialSnapV2 = 2

func encodeGroupPartial(w *snap.Writer, gp *groupPartial) error {
	w.U8(partialSnapV2)
	w.Varint(int64(gp.end))
	w.String(gp.group)
	w.Uvarint(uint64(len(gp.contribs)))
	for _, c := range gp.contribs {
		if err := encodeContrib(w, *c); err != nil {
			return err
		}
	}
	return nil
}

func decodeGroupPartial(r *snap.Reader) (*groupPartial, error) {
	if v := r.U8(); v != partialSnapV2 && r.Err() == nil {
		r.Fail("group partial snapshot version %d", v)
	}
	gp := &groupPartial{}
	gp.end = stream.Time(r.Varint())
	gp.group = r.String()
	n := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	cs := make([]PartialContrib, 0, n)
	for i := 0; i < n; i++ {
		c, err := decodeContrib(r)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	gp.contribs = refs(cs)
	return gp, nil
}

func encodeContrib(w *snap.Writer, c PartialContrib) error {
	w.Uvarint(c.Seq)
	w.F64(c.P)
	w.Bool(c.D != nil)
	if c.D != nil {
		if err := dist.Encode(w, c.D); err != nil {
			return err
		}
	}
	w.Uvarint(uint64(len(c.Aux)))
	for _, x := range c.Aux {
		w.F64(x)
	}
	return encodeUTuple(w, c.U)
}

func decodeContrib(r *snap.Reader) (PartialContrib, error) {
	var c PartialContrib
	c.Seq = r.Uvarint()
	c.P = r.F64()
	if r.Bool() {
		c.D = dist.Decode(r)
	}
	na := r.Len()
	if err := r.Err(); err != nil {
		return c, err
	}
	if na > 0 {
		c.Aux = make([]float64, na)
		for i := range c.Aux {
			c.Aux[i] = r.F64()
		}
	}
	u, err := decodeUTuple(r)
	if err != nil {
		return c, err
	}
	c.U = u
	return c, r.Err()
}

// --- incremental windowed aggregate (replay restore) ---

const incGroupSnapV1 = 1

// SnapshotState implements stream.DeltaConsumerState. Everything this box
// holds — group accumulators, lineage multisets, the dedup winner map, the
// record deque — is derivable from the window residents, so the blob is a
// version marker only. This holds for every UAgg by contract: Acc state must
// be a function of the live contributions and their insertion order.
func (b *incWindowAgg) SnapshotState() ([]byte, error) {
	return []byte{incGroupSnapV1}, nil
}

// RestoreState implements stream.DeltaConsumerState by replaying admission
// and contribution over the announced residents in arrival order. The
// replay reproduces the pre-crash live state exactly:
//
//   - Dedup: a resident loser's winner is necessarily still resident
//     (membership is decided by timestamp and the loser's timestamp is no
//     newer than its winner's), so latest-wins restricted to the residents
//     reaches the same winners.
//   - Accumulators: live contributions entered each group's log in arrival
//     order of their records — replay inserts the same gated contributions
//     in the same order, so the left-to-right refold in Result() rounds
//     identically.
//   - Lineage: per-group multiset counts equal the live contributions'
//     reference counts, which replay reconstructs.
func (b *incWindowAgg) RestoreState(data []byte, announced []*stream.Tuple) error {
	if len(data) != 1 || data[0] != incGroupSnapV1 {
		return fmt.Errorf("core: incremental window-agg snapshot version %v", data)
	}
	b.states = make(map[string]*groupState)
	b.recs = b.recs[:0]
	b.recHead = 0
	b.recBase = 0
	if b.byKey != nil {
		b.byKey = make(map[int64]uint64, 1024)
	}
	b.recent = [4]struct {
		name string
		st   *groupState
	}{}
	b.recentNext = 0
	for _, t := range announced {
		b.admit(t)
	}
	for i := 0; i < len(b.recs); i++ {
		b.contribute(i)
	}
	return nil
}

// --- windowed-aggregate box handle ---

// Snapshot implements stream.Snapshotter by delegating to the realization
// (rescan window or incremental delta window — both snapshot). Interface
// embedding alone would not surface the methods to type assertions made on
// the concrete inner operator, so the delegation is explicit.
func (o *windowAggOp) Snapshot() ([]byte, error) {
	s, ok := o.Operator.(stream.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: window-agg realization %T does not snapshot", o.Operator)
	}
	return s.Snapshot()
}

// Restore implements stream.Snapshotter.
func (o *windowAggOp) Restore(data []byte) error {
	s, ok := o.Operator.(stream.Snapshotter)
	if !ok {
		return fmt.Errorf("core: window-agg realization %T does not snapshot", o.Operator)
	}
	return s.Restore(data)
}

// Snapshot implements stream.Snapshotter for the kind-tagged partial
// realization; like windowAggOp, the delegation must be explicit because the
// embedded interface only surfaces stream.Operator's methods.
func (o *aggKindOp) Snapshot() ([]byte, error) {
	s, ok := o.Operator.(stream.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: partial realization %T does not snapshot", o.Operator)
	}
	return s.Snapshot()
}

// Restore implements stream.Snapshotter.
func (o *aggKindOp) Restore(data []byte) error {
	s, ok := o.Operator.(stream.Snapshotter)
	if !ok {
		return fmt.Errorf("core: partial realization %T does not snapshot", o.Operator)
	}
	return s.Restore(data)
}

// --- shard merge ---

const mergeSnapV2 = 2 // v2: generalized contribution layout (partialSnapV2)

// Snapshot implements stream.Snapshotter: per-port close counts plus every
// pending window's partial contributions, keyed by close ordinal. A group's
// partial lists are written back to back in arrival order, which is also
// the v2 layout of the merge that concatenated them on arrival; Restore
// splits the flat list back into arrival-ordered runs.
func (o *windowAggMerge) Snapshot() ([]byte, error) {
	w := &snap.Writer{}
	w.U8(mergeSnapV2)
	w.Varint(int64(o.p))
	for _, c := range o.closed {
		w.Varint(int64(c))
	}
	w.Varint(int64(o.next))
	ordinals := make([]int, 0, len(o.wins))
	for k := range o.wins {
		ordinals = append(ordinals, k)
	}
	sort.Ints(ordinals)
	w.Uvarint(uint64(len(ordinals)))
	for _, ord := range ordinals {
		win := o.wins[ord]
		w.Varint(int64(ord))
		w.Varint(int64(win.end))
		w.Varint(int64(win.closes))
		w.Uvarint(uint64(len(win.groups)))
		for _, g := range win.groups {
			w.String(g.name)
			n := 0
			for _, run := range g.runs {
				n += len(run)
			}
			w.Uvarint(uint64(n))
			for _, run := range g.runs {
				for _, c := range run {
					if err := encodeContrib(w, *c); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return w.Bytes(), nil
}

// Restore implements stream.Snapshotter.
func (o *windowAggMerge) Restore(data []byte) error {
	r := snap.NewReader(data)
	if v := r.U8(); v != mergeSnapV2 && r.Err() == nil {
		r.Fail("merge snapshot version %d", v)
	}
	if p := int(r.Varint()); p != o.p && r.Err() == nil {
		r.Fail("%s: snapshot has %d ports, operator has %d", o.name, p, o.p)
	}
	for i := range o.closed {
		o.closed[i] = int(r.Varint())
	}
	o.next = int(r.Varint())
	o.wins = make(map[int]*mergeWin)
	nw := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	for i := 0; i < nw; i++ {
		ord := int(r.Varint())
		win := &mergeWin{idx: make(map[string]int)}
		win.end = stream.Time(r.Varint())
		win.closes = int(r.Varint())
		ng := r.Len()
		if r.Err() != nil {
			break
		}
		for j := 0; j < ng; j++ {
			g := win.group(r.String())
			nc := r.Len()
			if r.Err() != nil {
				break
			}
			cs := make([]PartialContrib, 0, nc)
			for k := 0; k < nc; k++ {
				c, err := decodeContrib(r)
				if err != nil {
					return err
				}
				cs = append(cs, c)
			}
			g.runs = append(g.runs, seqRuns(cs)...)
		}
		o.wins[ord] = win
	}
	return r.Close()
}

// seqRuns splits a flat contribution list into its maximal Seq-ascending
// runs — the per-partial lists a snapshot wrote back to back. Adjacent lists
// that happen to continue in order come back as one run, which merges
// identically.
func seqRuns(cs []PartialContrib) [][]*PartialContrib {
	all := refs(cs)
	var runs [][]*PartialContrib
	start := 0
	for i := 1; i < len(all); i++ {
		if all[i].Seq < all[i-1].Seq {
			runs = append(runs, all[start:i:i])
			start = i
		}
	}
	return append(runs, all[start:])
}
