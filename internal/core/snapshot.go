package core

import (
	"fmt"
	"slices"
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
	dist.RegisterCodec(distTagMoment, (*momentDist)(nil),
		func(w *snap.Writer, d dist.Dist) error {
			m := d.(*momentDist)
			w.F64(m.mean)
			w.F64(m.variance)
			return dist.Encode(w, m.gated())
		},
		func(r *snap.Reader) (dist.Dist, error) {
			// The gate is already folded into the decoded mixture, so p = 1
			// and re-encoding writes the same bytes.
			m := &momentDist{mean: r.F64(), variance: r.F64(), p: 1}
			m.v = dist.DecodeVal(r)
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
		if err := dist.EncodeVal(w, u.val(i)); err != nil {
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
	u.vals = make([]gauss, na)
	for i := 0; i < na; i++ {
		u.names[i] = r.String()
		u.setVal(i, dist.DecodeVal(r))
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
	if b.mode == incDelta {
		// The replayed contributions are the ones the merge held for this
		// shard: hand them back instead of shipping them again.
		b.link.restored[b.port] = b.delta
		b.delta, b.gen = b.link.take(), b.gen+1
		clear(b.touched)
		b.touched = b.touched[:0]
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

// A merge snapshot is v2 unless the merge holds slide-delta state, which
// v3 adds: each pending window's delta flag, with a delta window's
// withdrawals and additions, and the live groups after the windows. Only a
// merge fed slide deltas without a shardLink holds such state; a sharded
// sliding plan's merge leaves its live groups out — its shards' restore hands
// them back — and holds no pending window when its quiescent plan
// checkpoints. So every merge a plan, worker or router builds writes v2, and
// reads the v2 blobs written before v3 existed.
const (
	mergeSnapV2 = 2
	mergeSnapV3 = 3
)

// Snapshot implements stream.Snapshotter: per-port close counts, every
// pending window's shard output keyed by close ordinal, and (v3) the live
// groups. A pending group's lists are written back to back in arrival order,
// and Restore splits the flat list back into arrival-ordered runs; a live
// group is written as its live list, ascending by Seq. A sharded sliding
// plan's merge refuses to snapshot a pending window: its live groups are
// rebuilt from the shards' residents, which holds only for a checkpoint of
// the whole quiescent plan, where every shard's closes have reached it.
func (o *windowAggMerge) Snapshot() ([]byte, error) {
	version := mergeSnapV2
	if o.link != nil {
		for ord := range o.wins {
			return nil, fmt.Errorf("%s: window %d is partly merged; a sliding plan checkpoints only when quiescent", o.name, ord)
		}
	} else if len(o.live) > 0 {
		version = mergeSnapV3
	} else {
		for _, win := range o.wins {
			if win.delta {
				version = mergeSnapV3
			}
		}
	}
	w := &snap.Writer{}
	w.U8(uint8(version))
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
		if version == mergeSnapV3 {
			w.Bool(win.delta)
		}
		w.Uvarint(uint64(len(win.groups)))
		for _, g := range win.groups {
			w.String(g.name)
			if win.delta {
				w.Uvarint(uint64(len(g.removes)))
				for _, seq := range g.removes {
					w.Uvarint(seq)
				}
				w.Uvarint(uint64(len(g.adds)))
				for _, c := range g.adds {
					if err := encodeContrib(w, c); err != nil {
						return nil, err
					}
				}
				continue
			}
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
	if version == mergeSnapV2 {
		return w.Bytes(), nil
	}
	names := make([]string, 0, len(o.live))
	for name, g := range o.live {
		if g.n > 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		g := o.live[name]
		w.String(name)
		w.Uvarint(uint64(g.n))
		for _, c := range g.cs {
			if c.U == nil {
				continue // a hole
			}
			if err := encodeContrib(w, c); err != nil {
				return nil, err
			}
		}
	}
	return w.Bytes(), nil
}

// Restore implements stream.Snapshotter. It refuses state the merge could
// not have held: a negative close count or ordinal, a pending window below
// the finalized ordinals or out of order, a pending window with p or more
// closes (Process finalizes a window at its p-th close, so it would never
// finalize again and its alerts would leave only at Flush, after every later
// window's), a group named twice or with nothing in it, and a live list
// whose stamps do not strictly ascend. A sharded sliding plan's merge also
// refuses any pending window, which its Snapshot never writes: the shards'
// replay hands back every contribution they had shipped, so a pending
// window's additions would be applied a second time.
func (o *windowAggMerge) Restore(data []byte) error {
	r := snap.NewReader(data)
	version := r.U8()
	if version != mergeSnapV2 && version != mergeSnapV3 && r.Err() == nil {
		r.Fail("merge snapshot version %d", version)
	}
	if p := int(r.Varint()); p != o.p && r.Err() == nil {
		r.Fail("%s: snapshot has %d ports, operator has %d", o.name, p, o.p)
	}
	for i := range o.closed {
		o.closed[i] = int(r.Varint())
		if o.closed[i] < 0 && r.Err() == nil {
			r.Fail("port %d has %d closes", i, o.closed[i])
		}
	}
	o.next = int(r.Varint())
	if o.next < 0 && r.Err() == nil {
		r.Fail("next window ordinal %d", o.next)
	}
	o.wins = make(map[int]*mergeWin)
	o.live = make(map[string]*liveGroup)
	nw := r.Len()
	prev := o.next - 1
	for i := 0; i < nw && r.Err() == nil; i++ {
		ord := int(r.Varint())
		win := &mergeWin{idx: make(map[string]int)}
		win.end = stream.Time(r.Varint())
		win.closes = int(r.Varint())
		if version == mergeSnapV3 {
			win.delta = r.Bool()
		}
		if r.Err() != nil {
			break
		}
		if o.link != nil {
			r.Fail("%s: pending window %d in a sliding plan's checkpoint", o.name, ord)
			break
		}
		if ord <= prev {
			r.Fail("pending window ordinal %d after %d (next %d)", ord, prev, o.next)
			break
		}
		if win.closes < 0 || win.closes >= o.p {
			r.Fail("pending window %d has %d of %d closes", ord, win.closes, o.p)
			break
		}
		prev = ord
		ng := r.Len()
		for j := 0; j < ng && r.Err() == nil; j++ {
			name := r.String()
			if _, dup := win.idx[name]; dup && r.Err() == nil {
				r.Fail("pending window %d names group %q twice", ord, name)
				break
			}
			g := win.group(name)
			if win.delta {
				nr := r.Len()
				for k := 0; k < nr && r.Err() == nil; k++ {
					g.removes = append(g.removes, r.Uvarint())
				}
			}
			cs, err := decodeContribs(r)
			if err != nil {
				return err
			}
			if len(cs) == 0 && len(g.removes) == 0 && r.Err() == nil {
				r.Fail("pending window %d holds nothing for group %q", ord, name)
			}
			if win.delta {
				g.adds = cs
			} else if len(cs) > 0 {
				g.runs = seqRuns(cs)
			}
		}
		o.wins[ord] = win
	}
	if version == mergeSnapV2 || o.link != nil {
		return r.Close()
	}
	nl := r.Len()
	last := ""
	for i := 0; i < nl && r.Err() == nil; i++ {
		name := r.String()
		if i > 0 && name <= last && r.Err() == nil {
			r.Fail("live group %q after %q: names not ascending or named twice", name, last)
			break
		}
		last = name
		cs, err := decodeContribs(r)
		if err != nil {
			return err
		}
		if len(cs) == 0 {
			r.Fail("live group %q is empty", name)
			break
		}
		for k := 1; k < len(cs); k++ {
			if cs[k].Seq <= cs[k-1].Seq {
				r.Fail("live group %q: seq %d after %d", name, cs[k].Seq, cs[k-1].Seq)
				break
			}
		}
		g := &liveGroup{cs: cs}
		g.add(cs)
		o.live[name] = g
	}
	return r.Close()
}

// decodeContribs reads a counted contribution list.
func decodeContribs(r *snap.Reader) ([]PartialContrib, error) {
	n := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	cs := make([]PartialContrib, 0, n)
	for k := 0; k < n; k++ {
		c, err := decodeContrib(r)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
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
