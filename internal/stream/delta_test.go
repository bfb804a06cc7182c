package stream

import (
	"fmt"
	"testing"
)

// deltaMirror replays a tuple sequence through both the rescan sliding
// window and the delta window, reconstructing the delta window's contents
// from its added/evicted notifications, and requires identical windows
// (same end, same tuples, same order) at every emission.
func deltaMirror(t *testing.T, spec WindowSpec, tss []Time) {
	t.Helper()
	s := NewSchema("v")
	tuples := make([]*Tuple, len(tss))
	for i, ts := range tss {
		tuples[i] = NewTuple(s, ts, float64(i))
	}

	var ref []string
	refOp := NewWindow("ref", spec, func(win []*Tuple, end Time, emit Emit) {
		ids := make([]uint64, len(win))
		for i, tp := range win {
			ids[i] = tp.ID
		}
		ref = append(ref, fmt.Sprintf("end=%d ids=%v", end, ids))
	})

	var got []string
	var live []*Tuple
	deltaOp := NewDeltaWindow("delta", spec, func(added, evicted []*Tuple, end Time, emit Emit) {
		for _, ev := range evicted {
			for i, tp := range live {
				if tp.ID == ev.ID {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		live = append(live, added...)
		ids := make([]uint64, len(live))
		for i, tp := range live {
			ids[i] = tp.ID
		}
		got = append(got, fmt.Sprintf("end=%d ids=%v", end, ids))
	})

	emit := func(*Tuple) {}
	for _, tp := range tuples {
		refOp.Process(0, tp, emit)
		deltaOp.Process(0, tp, emit)
	}
	refOp.Flush(emit)
	deltaOp.Flush(emit)

	// The rescan window fires on empty mid-stream slides too; the delta
	// consumer sees those as empty-delta calls. Both sequences list every
	// fired window, so they must agree except that the rescan path may fire
	// with an empty window where the delta path also fires (both record).
	if fmt.Sprint(ref) != fmt.Sprint(got) {
		t.Errorf("delta window diverges from rescan window:\nref: %v\ngot: %v", ref, got)
	}
}

func TestDeltaWindowMirrorsRescan(t *testing.T) {
	cases := []struct {
		name string
		spec WindowSpec
		tss  []Time
	}{
		{"basic", WindowSpec{Duration: 10, Slide: 5}, []Time{0, 2, 6, 8, 12, 14}},
		{"boundaries", WindowSpec{Duration: 10, Slide: 5}, []Time{0, 5, 10, 15, 20}},
		{"empty-slides", WindowSpec{Duration: 4, Slide: 2}, []Time{0, 1, 20, 21, 40}},
		{"dense", WindowSpec{Duration: 5, Slide: 1}, []Time{0, 0, 1, 1, 2, 3, 3, 4, 7, 9, 9, 10, 11, 15}},
		{"stragglers", WindowSpec{Duration: 10, Slide: 5}, []Time{0, 7, 3, 9, 2, 14, 8, 21, 16, 30}},
		{"slide-equals-range", WindowSpec{Duration: 5, Slide: 5}, []Time{0, 1, 4, 5, 6, 11}},
		{"slide-exceeds-range", WindowSpec{Duration: 2, Slide: 5}, []Time{0, 1, 3, 6, 8, 12}},
		{"single-tuple-drain", WindowSpec{Duration: 4, Slide: 1}, []Time{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { deltaMirror(t, tc.spec, tc.tss) })
	}
}

// TestDeltaWindowEvictionCounts checks the delta bookkeeping directly:
// every announced tuple is evicted exactly once (or survives to flush), and
// tuples that never belong to any window are never announced.
func TestDeltaWindowEvictionCounts(t *testing.T) {
	s := NewSchema("v")
	seenAdd := map[uint64]int{}
	seenEvict := map[uint64]int{}
	op := NewDeltaWindow("d", WindowSpec{Duration: 2, Slide: 5}, func(added, evicted []*Tuple, end Time, emit Emit) {
		for _, tp := range added {
			seenAdd[tp.ID]++
		}
		for _, tp := range evicted {
			seenEvict[tp.ID]++
		}
	})
	emit := func(*Tuple) {}
	// With range 2 and slide 5, the tuple at ts=1 falls in the gap of the
	// window ending at 5 ([3,5)): it must never be announced.
	gap := NewTuple(s, 1, 0.0)
	in := NewTuple(s, 4, 1.0)
	op.Process(0, NewTuple(s, 0, 2.0), emit)
	op.Process(0, gap, emit)
	op.Process(0, in, emit)
	op.Process(0, NewTuple(s, 11, 3.0), emit)
	op.Flush(emit)
	if seenAdd[gap.ID] != 0 || seenEvict[gap.ID] != 0 {
		t.Errorf("gap tuple announced: add=%d evict=%d", seenAdd[gap.ID], seenEvict[gap.ID])
	}
	if seenAdd[in.ID] != 1 {
		t.Errorf("in-window tuple added %d times", seenAdd[in.ID])
	}
	for id, n := range seenAdd {
		if n != 1 {
			t.Errorf("tuple %d added %d times", id, n)
		}
		if seenEvict[id] > 1 {
			t.Errorf("tuple %d evicted %d times", id, seenEvict[id])
		}
	}
	for id := range seenEvict {
		if seenAdd[id] == 0 {
			t.Errorf("tuple %d evicted but never added", id)
		}
	}
}

func TestDeltaWindowRejectsNonSliding(t *testing.T) {
	for _, spec := range []WindowSpec{{Count: 5}, {Duration: 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v should panic", spec)
				}
			}()
			NewDeltaWindow("d", spec, func(_, _ []*Tuple, _ Time, _ Emit) {})
		}()
	}
}

// clockedInput runs in through a one-shard clocked partition and returns
// what a shard instance behind it receives: the stamped data tuples with the
// broadcast close punctuations interleaved, final flush closes included.
func clockedInput(spec WindowSpec, in []*Tuple) []*Tuple {
	part := NewPartition("part", 1, PartitionSpec{Clock: &spec})
	var out []*Tuple
	emit := func(t *Tuple) { out = append(out, t) }
	for _, t := range in {
		part.Process(0, t, emit)
	}
	part.Flush(emit)
	return out
}

// TestExternalDeltaWindowMatchesExternalWindow: driven by the same close
// punctuations, the externally clocked delta window's reconstructed
// contents equal the external rescan window's at every close — stragglers,
// empty slides and a slide gap wider than the range included — and both
// forward exactly the punctuations they receive.
func TestExternalDeltaWindowMatchesExternalWindow(t *testing.T) {
	s := NewSchema("v")
	cases := []struct {
		name string
		spec WindowSpec
		tss  []Time
	}{
		{"basic", WindowSpec{Duration: 10, Slide: 5}, []Time{0, 2, 6, 8, 12, 14}},
		{"stragglers", WindowSpec{Duration: 10, Slide: 5}, []Time{0, 7, 3, 9, 2, 14, 8, 21, 16, 30}},
		{"empty-slides", WindowSpec{Duration: 4, Slide: 2}, []Time{0, 1, 20, 21, 40}},
		{"gap-wider-than-range", WindowSpec{Duration: 2, Slide: 5}, []Time{0, 1, 3, 6, 8, 12, 2}},
		{"dense", WindowSpec{Duration: 5, Slide: 1}, []Time{0, 0, 1, 1, 2, 3, 3, 4, 7, 9, 9, 10, 11, 15}},
	}
	render := func(ids []uint64, end Time) string { return fmt.Sprintf("@%d%v", end, ids) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var in []*Tuple
			for i, ts := range tc.tss {
				in = append(in, NewTuple(s, ts, float64(i)))
			}
			seq := clockedInput(tc.spec, in)

			var ref []string
			refOp := NewExternalWindow("ref", tc.spec, func(win []*Tuple, end Time, _ Emit) {
				ids := make([]uint64, len(win))
				for i, tp := range win {
					ids[i] = tp.ID
				}
				ref = append(ref, render(ids, end))
			})
			var got []string
			var live []*Tuple
			c := &deltaSumConsumer{}
			op := NewExternalDeltaWindowState("delta", tc.spec, func(added, evicted []*Tuple, end Time, _ Emit) {
				for _, ev := range evicted {
					for i, tp := range live {
						if tp.ID == ev.ID {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
				live = append(live, added...)
				ids := make([]uint64, len(live))
				for i, tp := range live {
					ids[i] = tp.ID
				}
				got = append(got, render(ids, end))
			}, c)
			refFwd := feedOp(refOp, seq, true)
			gotFwd := feedOp(op, seq, true)
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("external delta window diverges:\nref: %v\ngot: %v", ref, got)
			}
			if len(refFwd) != len(gotFwd) || len(gotFwd) == 0 {
				t.Fatalf("forwarded %d punctuations, external window %d", len(gotFwd), len(refFwd))
			}
			for i := range gotFwd {
				if !IsControl(gotFwd[i]) || gotFwd[i] != refFwd[i] {
					t.Fatalf("forwarded output %d is not the received punctuation", i)
				}
			}
		})
	}
}

// TestExternalDeltaWindowSnapshot: the externally clocked delta window
// restores byte-identically at every cut of its punctuated input, and its
// blob carries its own version byte, so neither a shard instance's rescan
// window blob nor a self-clocked delta blob — both of which start with
// version 1 — can be decoded as its layout, nor its blob as theirs.
func TestExternalDeltaWindowSnapshot(t *testing.T) {
	spec := WindowSpec{Duration: 2000, Slide: 1000}
	seq := clockedInput(spec, windowInput())
	mkOp := func() Operator {
		c := &deltaSumConsumer{}
		return NewExternalDeltaWindowState("dw", spec, c.onSlide, c)
	}
	data := func(ts []*Tuple) []*Tuple {
		var out []*Tuple
		for _, t := range ts {
			if !IsControl(t) {
				out = append(out, t)
			}
		}
		return out
	}
	ref := renderOuts(data(feedOp(mkOp(), seq, true)))
	if ref == "" {
		t.Fatal("reference emitted nothing")
	}
	for cut := 0; cut <= len(seq); cut++ {
		a := mkOp()
		prefix := feedOp(a, seq[:cut], false)
		blob, err := a.(Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		b := mkOp()
		if err := b.(Snapshotter).Restore(blob); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if got := renderOuts(data(prefix)) + renderOuts(data(feedOp(b, seq[cut:], true))); got != ref {
			t.Fatalf("cut %d diverges:\nref:\n%s\ngot:\n%s", cut, ref, got)
		}
	}

	ext := NewExternalWindow("dw", spec, sumWindow)
	feedOp(ext, seq[:6], false)
	extBlob, _ := ext.(Snapshotter).Snapshot()
	c := &deltaSumConsumer{}
	self := NewDeltaWindowState("dw", spec, c.onSlide, c)
	feedOp(self, windowInput()[:6], false)
	selfBlob, _ := self.(Snapshotter).Snapshot()
	if extBlob[0] != 1 || selfBlob[0] != 1 {
		t.Fatalf("foreign blobs start with %d and %d, want version 1", extBlob[0], selfBlob[0])
	}
	for name, blob := range map[string][]byte{"external window": extBlob, "self-clocked delta window": selfBlob} {
		if err := mkOp().(Snapshotter).Restore(blob); err == nil {
			t.Errorf("%s blob restored into an external delta window", name)
		}
	}
	a := mkOp()
	feedOp(a, seq[:6], false)
	own, _ := a.(Snapshotter).Snapshot()
	if err := self.(Snapshotter).Restore(own); err == nil {
		t.Error("external delta blob restored into a self-clocked delta window")
	}
}
