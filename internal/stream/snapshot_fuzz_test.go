package stream

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/snap"
)

// partitionBlob hand-builds a partition snapshot with an idle clock.
func partitionBlob(p, rr, sinceWM int64) []byte {
	w := &snap.Writer{}
	w.U8(partitionSnapV1)
	w.Varint(p)
	(&windowClock{}).encode(w)
	w.Varint(rr)
	w.Uvarint(7)
	w.Varint(sinceWM)
	return w.Bytes()
}

// routeNext feeds one unkeyed data tuple through op and returns the routes
// of the data tuples it emits (punctuations are broadcast, not routed).
func routeNext(op Operator, ts Time) []int {
	var routes []int
	op.Process(0, liveTuple(ts, 1), func(out *Tuple) {
		if IsControl(out) {
			return
		}
		shard, ok := out.RouteShard()
		if !ok {
			shard = -1
		}
		routes = append(routes, shard)
	})
	return routes
}

// TestPartitionRestoreRejectsOutOfRangeCursor: a round-robin cursor outside
// [0, p) stamps a route past the last arrow, which the engine delivers as a
// broadcast — one tuple silently reaching every shard — so restore must
// refuse it, and a negative or overgrown watermark cadence count with it.
func TestPartitionRestoreRejectsOutOfRangeCursor(t *testing.T) {
	for _, c := range []struct{ rr, sinceWM int64 }{
		{5, 0}, {2, 0}, {-1, 0}, {0, -1}, {0, watermarkEvery},
	} {
		op := NewPartition("part", 2, PartitionSpec{Watermarks: true})
		if err := op.(Snapshotter).Restore(partitionBlob(2, c.rr, c.sinceWM)); err == nil {
			t.Errorf("rr=%d sinceWM=%d: restore accepted an impossible partition state", c.rr, c.sinceWM)
		}
	}
	op := NewPartition("part", 2, PartitionSpec{Watermarks: true})
	if err := op.(Snapshotter).Restore(partitionBlob(2, 1, 3)); err != nil {
		t.Fatalf("in-range state refused: %v", err)
	}
	if got := routeNext(op, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("restored cursor 1 routed the next tuple to %v, want [1]", got)
	}
}

// TestRestoreRefusesOverflowingBoundary: a time clock restored with its
// window starting less than one step below the Time range would wrap its
// next boundary negative, and its close loop would then never admit the
// next tuple. Partition, window and delta-window restores refuse such a
// start, and accept the same blob one step lower. The blobs are only
// restored, never fed a tuple, so the test cannot hang on a build that
// accepts them.
func TestRestoreRefusesOverflowingBoundary(t *testing.T) {
	spec := WindowSpec{Duration: 2000, Slide: 500}
	clockBlob := func(w *snap.Writer, start Time) {
		c := windowClock{spec: spec, started: true, winStart: start, buffered: true, maxTS: start, lastTS: start}
		c.encode(w)
	}
	cases := []struct {
		name string
		op   func() Operator
		blob func(w *snap.Writer, start Time)
	}{
		{"partition", func() Operator { return NewPartition("part", 2, PartitionSpec{Clock: &spec}) }, func(w *snap.Writer, start Time) {
			w.U8(partitionSnapV1)
			w.Varint(2)
			clockBlob(w, start)
			w.Varint(0) // round-robin cursor
			w.Uvarint(0)
			w.Varint(0) // watermark cadence
		}},
		{"window", func() Operator { return NewWindow("win", spec, func([]*Tuple, Time, Emit) {}) }, func(w *snap.Writer, start Time) {
			w.U8(windowSnapV1)
			encodeSpec(w, spec)
			clockBlob(w, start)
			encodeTuples(w, NewTupleCodec(), nil)
		}},
		{"delta window", func() Operator { return NewDeltaWindow("delta", spec, func(_, _ []*Tuple, _ Time, _ Emit) {}) }, func(w *snap.Writer, start Time) {
			w.U8(deltaSnapV1)
			encodeSpec(w, spec)
			w.Bool(true) // started
			w.Varint(int64(start))
			w.Bool(true) // sorted
			w.Varint(0)  // announce boundary
			encodeTuples(w, NewTupleCodec(), nil)
			w.Blob(nil)
		}},
	}
	last := Time(math.MaxInt64 - 500) // last + 500 is the largest boundary
	for _, c := range cases {
		for _, start := range []Time{last, last + 1} {
			w := &snap.Writer{}
			c.blob(w, start)
			err := c.op().(Snapshotter).Restore(w.Bytes())
			if start == last && err != nil {
				t.Errorf("%s: window start %d refused: %v", c.name, start, err)
			}
			if start > last && err == nil {
				t.Errorf("%s: restore accepted a window start of %d, whose next boundary overflows", c.name, start)
			}
		}
	}
}

// partitionConfigs are the operators FuzzPartitionSnapshot restores into:
// no clock, a count clock, and a sliding time clock.
var partitionConfigs = []struct {
	p    int
	spec func() PartitionSpec
}{
	{2, func() PartitionSpec { return PartitionSpec{Watermarks: true} }},
	{3, func() PartitionSpec { return PartitionSpec{Clock: &WindowSpec{Count: 3}, Watermarks: true} }},
	{2, func() PartitionSpec { return PartitionSpec{Clock: &WindowSpec{Duration: 2000, Slide: 500}} }},
}

// nextTS is the timestamp FuzzPartitionSnapshot feeds a restored
// partition: a started time clock's next boundary, which closes exactly
// one window, and 0 otherwise. A tuple at an arbitrary time could owe up
// to 2⁶³ closes to a clock restored at an arbitrary boundary.
func nextTS(op Operator) Time {
	c := op.(*partitionOp).clock
	if c.spec.Count > 0 || !c.started {
		return 0
	}
	return c.winStart + c.spec.step()
}

// FuzzPartitionSnapshot: restoring arbitrary bytes never panics; an
// accepted blob re-snapshots to a fixpoint (snapshot → restore → snapshot
// is byte-identical); and an accepted partition routes its next unkeyed
// tuple to exactly one arrow in [0, p), a time-clocked one at its clock's
// next boundary.
//
//	go test ./internal/stream -run '^$' -fuzz FuzzPartitionSnapshot -fuzztime 15s
func FuzzPartitionSnapshot(f *testing.F) {
	for _, c := range partitionConfigs {
		op := NewPartition("part", c.p, c.spec())
		for i := 0; i < 70; i++ {
			if i%9 == 0 {
				s, err := op.(Snapshotter).Snapshot()
				if err != nil {
					f.Fatal(err)
				}
				f.Add(s)
			}
			op.Process(0, liveTuple(Time(i*150), int64(i)), func(*Tuple) {})
		}
	}
	f.Add(partitionBlob(2, 5, 0))
	f.Add(partitionBlob(2, 1, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range partitionConfigs {
			op := NewPartition("part", c.p, c.spec())
			if op.(Snapshotter).Restore(data) != nil {
				continue
			}
			s1, err := op.(Snapshotter).Snapshot()
			if err != nil {
				t.Fatalf("p=%d: snapshot of an accepted state: %v", c.p, err)
			}
			again := NewPartition("part", c.p, c.spec())
			if err := again.(Snapshotter).Restore(s1); err != nil {
				t.Fatalf("p=%d: own snapshot refused: %v", c.p, err)
			}
			s2, err := again.(Snapshotter).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1, s2) {
				t.Fatalf("p=%d: snapshot is not a fixpoint:\n%x\n%x", c.p, s1, s2)
			}
			if got := routeNext(again, nextTS(again)); len(got) != 1 || got[0] < 0 || got[0] >= c.p {
				t.Fatalf("p=%d: next unkeyed tuple routed to %v, want one arrow in [0, %d)", c.p, got, c.p)
			}
		}
	})
}

// seqMergeSeed queues data tuples on a p-port merge without releasing them
// (no watermarks, and one port left empty) and returns its snapshot.
func seqMergeSeed(tb testing.TB, p int, vals ...Value) []byte {
	m := NewSeqMerge("m", p)
	for i, v := range vals {
		tp := NewTuple(snapTestSchema, Time(i), v, "x")
		if i%2 == 1 {
			tp = &Tuple{ID: uint64(100 + i), TS: Time(i), Fields: []Value{v, int64(i), Time(i)}}
		}
		tp.Seq = uint64(3 * i)
		m.Process(i%(p-1), tp, func(*Tuple) { tb.Fatal("seed merge released a tuple") })
	}
	s, err := m.(Snapshotter).Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// FuzzSeqMergeSnapshot: restoring arbitrary bytes never panics; an accepted
// blob re-snapshots to a fixpoint; and an accepted merge's flush releases
// its queued tuples in sequence order.
//
//	go test ./internal/stream -run '^$' -fuzz FuzzSeqMergeSnapshot -fuzztime 15s
func FuzzSeqMergeSnapshot(f *testing.F) {
	f.Add(seqMergeSeed(f, 2))
	f.Add(seqMergeSeed(f, 2, 1.5, "a", nil, true))
	f.Add(seqMergeSeed(f, 3, int64(-4), 0.25, Time(9), "b", int(7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []int{2, 3} {
			m := NewSeqMerge("m", p)
			if m.(Snapshotter).Restore(data) != nil {
				continue
			}
			s1, err := m.(Snapshotter).Snapshot()
			if err != nil {
				t.Fatalf("p=%d: snapshot of an accepted state: %v", p, err)
			}
			again := NewSeqMerge("m", p)
			if err := again.(Snapshotter).Restore(s1); err != nil {
				t.Fatalf("p=%d: own snapshot refused: %v", p, err)
			}
			s2, err := again.(Snapshotter).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1, s2) {
				t.Fatalf("p=%d: snapshot is not a fixpoint:\n%x\n%x", p, s1, s2)
			}
			var last uint64
			again.Flush(func(out *Tuple) {
				if out.Seq < last {
					t.Fatalf("p=%d: flush released seq %d after %d", p, out.Seq, last)
				}
				last = out.Seq
			})
		}
	})
}
