package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snap"
	"repro/internal/stream"
)

// The tests in this file pin the merge's snapshot decoder: it refuses every
// state the merge could not have held, and decode → encode is a fixpoint on
// whatever it accepts.

// mergeBlob is a hand-built merge snapshot: v2 writes no delta flags, no
// withdrawals and no live groups.
type mergeBlob struct {
	version int
	p       int
	closed  []int
	next    int
	wins    []blobWin
	live    []blobGroup
}

type blobWin struct {
	ord, end, closes int
	delta            bool
	groups           []blobGroup
}

type blobGroup struct {
	name    string
	removes []uint64
	seqs    []uint64 // one contribution per stamp
}

func (b mergeBlob) bytes(tb testing.TB) []byte {
	tb.Helper()
	w := &snap.Writer{}
	w.U8(uint8(b.version))
	w.Varint(int64(b.p))
	for _, c := range b.closed {
		w.Varint(int64(c))
	}
	w.Varint(int64(b.next))
	contribs := func(seqs []uint64) {
		w.Uvarint(uint64(len(seqs)))
		for i, seq := range seqs {
			u := Unwrap(shardTestTuple(stream.Time(seq), int64(i), float64(seq%40), 10+float64(i)))
			if err := encodeContrib(w, PartialContrib{Seq: seq, U: u, P: 0.5, Aux: []float64{1, 2}}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	w.Uvarint(uint64(len(b.wins)))
	for _, win := range b.wins {
		w.Varint(int64(win.ord))
		w.Varint(int64(win.end))
		w.Varint(int64(win.closes))
		delta := b.version == mergeSnapV3 && win.delta
		if b.version == mergeSnapV3 {
			w.Bool(delta)
		}
		w.Uvarint(uint64(len(win.groups)))
		for _, g := range win.groups {
			w.String(g.name)
			if delta {
				w.Uvarint(uint64(len(g.removes)))
				for _, seq := range g.removes {
					w.Uvarint(seq)
				}
			}
			contribs(g.seqs)
		}
	}
	if b.version != mergeSnapV3 {
		return w.Bytes()
	}
	w.Uvarint(uint64(len(b.live)))
	for _, g := range b.live {
		w.String(g.name)
		contribs(g.seqs)
	}
	return w.Bytes()
}

// validMergeBlob holds one window a shard has closed. At v3 it is a delta
// window, with a withdrawal and an addition over two live groups; at v2 —
// the layout of every merge a plan, worker or router builds — it holds one
// group's contribution list.
func validMergeBlob(version int) mergeBlob {
	b := mergeBlob{
		version: version, p: 2, closed: []int{5, 4}, next: 4,
		wins: []blobWin{{ord: 4, end: 50, closes: 1, groups: []blobGroup{{name: "c1", seqs: []uint64{20}}}}},
	}
	if version == mergeSnapV3 {
		b.wins[0].delta = true
		b.wins[0].groups[0].removes = []uint64{3}
		b.live = []blobGroup{{name: "c1", seqs: []uint64{3, 7, 9}}, {name: "c2", seqs: []uint64{8}}}
	}
	return b
}

func mergeSnapshotTestOp() stream.Operator {
	return NewWindowAggMergeOp("merge", partialTestConfig(partialSpecs["range3"], NewQuantileAgg("weight", 0.5, QuantileOptions{})), 2)
}

// TestMergeRestoreRejectsImpossibleState: each blob differs from a valid one
// in one respect the merge could never have produced; each must fail to
// restore, with the reason named. Cases that do not touch delta state run
// at both versions.
func TestMergeRestoreRejectsImpossibleState(t *testing.T) {
	for _, version := range []int{mergeSnapV2, mergeSnapV3} {
		valid := validMergeBlob(version).bytes(t)
		op := mergeSnapshotTestOp()
		if err := op.(stream.Snapshotter).Restore(valid); err != nil {
			t.Fatalf("the valid v%d blob: %v", version, err)
		}
		if again, err := op.(stream.Snapshotter).Snapshot(); err != nil || string(again) != string(valid) {
			t.Fatalf("the valid v%d blob does not re-encode to itself (err %v)", version, err)
		}
	}
	cases := []struct {
		name, want string
		v3only     bool
		edit       func(b *mergeBlob)
	}{
		{"unknown version", "version 4", false, func(b *mergeBlob) { b.version = 4 }},
		{"closes above p", "3 of 2 closes", false, func(b *mergeBlob) { b.wins[0].closes = 3 }},
		{"closes equal to p", "2 of 2 closes", false, func(b *mergeBlob) { b.wins[0].closes = 2 }},
		{"negative closes", "-1 of 2 closes", false, func(b *mergeBlob) { b.wins[0].closes = -1 }},
		{"ordinal below next", "ordinal 3", false, func(b *mergeBlob) { b.wins[0].ord = 3 }},
		{"ordinals out of order", "ordinal 5 after 6", false, func(b *mergeBlob) {
			b.wins = []blobWin{{ord: 6, closes: 1, delta: true, groups: []blobGroup{{name: "a", seqs: []uint64{30}}}}, {ord: 5, closes: 1}}
		}},
		{"negative port close count", "port 1 has -2 closes", false, func(b *mergeBlob) { b.closed[1] = -2 }},
		{"negative next", "next window ordinal -1", false, func(b *mergeBlob) { b.next = -1 }},
		{"pending group named twice", `names group "c1" twice`, false, func(b *mergeBlob) {
			b.wins[0].groups = append(b.wins[0].groups, blobGroup{name: "c1", seqs: []uint64{21}})
		}},
		{"empty pending group", `nothing for group "c1"`, false, func(b *mergeBlob) { b.wins[0].groups[0] = blobGroup{name: "c1"} }},
		{"live group named twice", `"c1" after "c1"`, true, func(b *mergeBlob) {
			b.live = append(b.live[:1], blobGroup{name: "c1", seqs: []uint64{10}})
		}},
		{"live groups out of order", `"c1" after "c2"`, true, func(b *mergeBlob) { b.live[0], b.live[1] = b.live[1], b.live[0] }},
		{"empty live group", `"c2" is empty`, true, func(b *mergeBlob) { b.live[1].seqs = nil }},
		{"repeated live stamp", "seq 7 after 7", true, func(b *mergeBlob) { b.live[0].seqs = []uint64{3, 7, 7} }},
		{"descending live stamps", "seq 7 after 9", true, func(b *mergeBlob) { b.live[0].seqs = []uint64{3, 9, 7} }},
	}
	for _, version := range []int{mergeSnapV2, mergeSnapV3} {
		for _, tc := range cases {
			if tc.v3only && version != mergeSnapV3 {
				continue
			}
			b := validMergeBlob(version)
			tc.edit(&b)
			err := mergeSnapshotTestOp().(stream.Snapshotter).Restore(b.bytes(t))
			if err == nil {
				t.Errorf("v%d %s: restored", version, tc.name)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("v%d %s: error %q does not say %q", version, tc.name, err, tc.want)
			}
		}
	}
	// A sharded sliding plan's merge takes its live groups back from its
	// shards' replay, which would apply a pending window's additions twice;
	// its Snapshot never writes one, and its Restore refuses one at either
	// version.
	for _, version := range []int{mergeSnapV2, mergeSnapV3} {
		cfg := partialTestConfig(partialSpecs["range3"], NewQuantileAgg("weight", 0.5, QuantileOptions{}))
		linked := NewWindowAggOp("γ", cfg).(PartitionedOp).Shard(2).Merge
		b := validMergeBlob(version)
		b.live = nil
		err := linked.(stream.Snapshotter).Restore(b.bytes(t))
		if err == nil || !strings.Contains(err.Error(), "pending window 4 in a sliding plan's checkpoint") {
			t.Errorf("v%d: a sliding plan's merge restored a pending window (err %v)", version, err)
		}
	}
}

// closeIndex is the length of the prefix of out that ends with its k-th
// window close.
func closeIndex(out []*stream.Tuple, k int) int {
	for i, t := range out {
		if _, ok := stream.WindowCloseOf(t); ok {
			if k--; k == 0 {
				return i + 1
			}
		}
	}
	return len(out)
}

// TestMergeRestoresV2Checkpoint: testdata holds the snapshot of a two-port
// tumbling quantile merge — the form of a sharded tumbling plan's merge and
// of a router's head merge — written before the merge learned slide deltas:
// port 0 had sent its first five windows and port 1 its first four, so
// window 4 was pending with one close. It restores, snapshots back to the
// same bytes, and the rest of both shards' output finalizes it and every
// later window as an uninterrupted merge does. Lineage ids are left out of
// the comparison: the recorded contributions carry another process's ids.
func TestMergeRestoresV2Checkpoint(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "merge_v2_tumbling_partly_received.bin"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := partialTestConfig(stream.WindowSpec{Duration: 30}, NewQuantileAgg("weight", 0.5, QuantileOptions{}))
	plan := NewWindowAggOp("γ", cfg).(PartitionedOp).Shard(2)
	ins := partitionInputs(plan, 2, partialWorkload())
	outs := [][]*stream.Tuple{feedOp(plan.Shards[0], ins[0]), feedOp(plan.Shards[1], ins[1])}
	cuts := []int{closeIndex(outs[0], 5), closeIndex(outs[1], 4)}
	render := func(ts []*stream.Tuple) string {
		var b strings.Builder
		for _, t := range ts {
			u := Unwrap(t)
			d := u.Attr(u.Names()[0])
			fmt.Fprintf(&b, "%d|%s|%.17g|%.17g\n", t.TS, GroupOf(t), d.Mean(), d.Variance())
		}
		return b.String()
	}
	feed := func(op stream.Operator, from, to []int) []*stream.Tuple {
		var got []*stream.Tuple
		for port, out := range outs {
			for _, x := range out[from[port]:to[port]] {
				op.Process(port, x, func(o *stream.Tuple) { got = append(got, o) })
			}
		}
		return got
	}
	ends := []int{len(outs[0]), len(outs[1])}
	whole := NewWindowAggMergeOp("merge", cfg, 2)
	pre := feed(whole, []int{0, 0}, cuts)
	ref := render(append(pre, feed(whole, cuts, ends)...))

	restored := NewWindowAggMergeOp("merge", cfg, 2)
	if err := restored.(stream.Snapshotter).Restore(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if w := restored.(*windowAggMerge).wins[4]; w == nil || w.closes != 1 || len(w.groups) == 0 {
		t.Fatal("the fixture's pending window did not come back")
	}
	if again, err := restored.(stream.Snapshotter).Snapshot(); err != nil || string(again) != string(blob) {
		t.Fatalf("the restored merge does not snapshot back to the fixture's bytes (err %v)", err)
	}
	if got := render(pre) + render(feed(restored, cuts, ends)); got != ref {
		t.Fatalf("the restored merge diverges from an uninterrupted one at line %d", firstDiff(ref, got))
	}
}

// FuzzDecodeMergeState: arbitrary bytes restored into a merge return an
// error or a state whose snapshot restores and snapshots again to the same
// bytes. Seeded with the valid hand-built blob and with the snapshots of a
// merge fed two shards' slide deltas at every cut.
func FuzzDecodeMergeState(f *testing.F) {
	f.Add(validMergeBlob(mergeSnapV2).bytes(f))
	f.Add(validMergeBlob(mergeSnapV3).bytes(f))
	cfg := partialTestConfig(partialSpecs["range3"], NewQuantileAgg("weight", 0.5, QuantileOptions{}))
	plan := NewWindowAggOp("γ", cfg).(PartitionedOp).Shard(2)
	ins := partitionInputs(plan, 2, partialWorkload())
	a, b := feedOp(plan.Shards[0], ins[0]), feedOp(plan.Shards[1], ins[1])
	merge := mergeSnapshotTestOp()
	for i := 0; i < len(a) || i < len(b); i++ {
		for port, out := range [][]*stream.Tuple{a, b} {
			if i < len(out) {
				merge.Process(port, out[i], func(*stream.Tuple) {})
			}
		}
		if i%25 == 0 {
			blob, err := merge.(stream.Snapshotter).Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		op := mergeSnapshotTestOp()
		if op.(stream.Snapshotter).Restore(data) != nil {
			return
		}
		once, err := op.(stream.Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("snapshot of an accepted state: %v", err)
		}
		again := mergeSnapshotTestOp()
		if err := again.(stream.Snapshotter).Restore(once); err != nil {
			t.Fatalf("a re-encoded state does not restore: %v", err)
		}
		twice, err := again.(stream.Snapshotter).Snapshot()
		if err != nil || string(twice) != string(once) {
			t.Fatalf("decode → encode is not a fixpoint (err %v)", err)
		}
	})
}
