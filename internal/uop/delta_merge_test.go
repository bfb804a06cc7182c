package uop

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/snap"
	"repro/internal/stream"
)

// The tests in this file pin the sliding merge that keeps each group's live
// contributions and is fed per-slide deltas: byte-identical to the unsharded
// plan on traces built to reach each of its paths, under every executor and
// across a checkpoint at every tuple boundary; and the restore of a
// checkpoint its full-list predecessor wrote.

// deltaMergeSpec is Range/Slide = 4, so a contribution lives through four
// slides.
var deltaMergeSpec = stream.WindowSpec{Duration: 2 * stream.Second, Slide: 500 * stream.Millisecond}

// deltaMergeMember puts each tuple in two neighbouring cells of its x mean
// (multi-group membership), and the heavy ones in a third group that holds
// contributions only now and then, so it empties and reappears.
func deltaMergeMember(u *core.UTuple) []core.GroupMass {
	cell := int(u.Attr("x").Mean()) / 10
	gm := []core.GroupMass{
		{Group: fmt.Sprintf("c%d", cell), P: 0.7},
		{Group: fmt.Sprintf("c%d", cell+1), P: 0.3},
	}
	if u.Attr("weight").Mean() >= 42 {
		gm = append(gm, core.GroupMass{Group: "heavy", P: 0.9})
	}
	return gm
}

// deltaMergeTrace is a seeded trace for the sliding merge. Time advances by
// up to 400 ms per reading, so some slides see nothing; now and then it
// jumps 6 s, past the range, and every group empties before readings come
// back. One reading in ten is a straggler up to 3 s behind; one in twelve is
// keyless. Eight tags re-report throughout (dedup replacement across
// slides), and one reading in six is followed by another of its tag at the
// same time (replacement within a slide).
func deltaMergeTrace(seed int64) []*core.UTuple {
	g := rand.New(rand.NewSource(seed))
	reading := func(at stream.Time, tag int64) *core.UTuple {
		u := core.NewUTuple(at, []string{"x", "weight"}, []dist.Dist{
			dist.NewNormal(float64(g.Intn(40)), 1+g.Float64()), dist.PointMass{V: float64(5 + g.Intn(40))},
		})
		if tag >= 0 {
			u.SetKey("tag", tag)
		}
		return u
	}
	var us []*core.UTuple
	now := stream.Time(0)
	for i := 0; i < 120; i++ {
		if g.Intn(25) == 0 {
			now += 6 * stream.Second
		} else {
			now += stream.Time(g.Intn(400)) * stream.Millisecond
		}
		at := now
		if g.Intn(10) == 0 {
			at = max(now-stream.Time(g.Intn(3000))*stream.Millisecond, 0)
		}
		tag := int64(g.Intn(8))
		if g.Intn(12) == 0 {
			tag = -1
		}
		us = append(us, reading(at, tag))
		if tag >= 0 && g.Intn(6) == 0 {
			us = append(us, reading(at, tag))
		}
	}
	return us
}

// renderDeltaAlerts is formatUAlerts with each alert's lineage appended, so
// the lineage the merge keeps incrementally is held to the unsharded plan's
// too.
func renderDeltaAlerts(ts []*stream.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		line := strings.TrimSuffix(formatUAlerts([]*stream.Tuple{t}), "\n")
		fmt.Fprintf(&b, "%s|lin=%v\n", line, core.Unwrap(t).Lin.IDs())
	}
	return b.String()
}

// runDelta runs a trace through a compiled plan: Push for buffer 0, the
// channel executor otherwise.
func runDelta(q *Query, us []*core.UTuple, buffer int) string {
	return renderDeltaAlerts(q.Compile().Run(Trace{"locations": us}, buffer))
}

// deltaMergeCases are the aggregates swept: the benchmark's quantile, and
// the gated sum, whose merge folds through Finalize without appending.
func deltaMergeCases() []slidingCase {
	q := func(shards int) *Query {
		return From("locations").Shards(shards).WindowSpec(deltaMergeSpec).DedupLatest("tag").GroupBy(deltaMergeMember)
	}
	return []slidingCase{
		{"quantile", func(s int, _ stream.WindowSpec, _ bool) *Query {
			return q(s).Quantile("weight", 0.5, core.QuantileOptions{}).Having(allRows)
		}},
		{"sum-cfapprox", func(s int, _ stream.WindowSpec, _ bool) *Query {
			return q(s).Sum("weight", core.CFApprox, core.AggOptions{}).Having(allRows)
		}},
	}
}

// TestDeltaMergeMatchesUnsharded: sharded sliding plans emit the unsharded
// plan's bytes for P ∈ {1, 2, 3, 4} under Push and the channel executor at
// several buffer sizes, over twelve seeded traces.
func TestDeltaMergeMatchesUnsharded(t *testing.T) {
	for _, tc := range deltaMergeCases() {
		for seed := int64(0); seed < 12; seed++ {
			us := deltaMergeTrace(seed)
			ref := runDelta(tc.build(0, stream.WindowSpec{}, false), us, 0)
			if ref == "" {
				t.Fatalf("%s seed %d: the unsharded plan emitted nothing", tc.name, seed)
			}
			for p := 1; p <= 4; p++ {
				for _, buffer := range []int{0, 1, 4, 64} {
					got := runDelta(tc.build(p, stream.WindowSpec{}, false), us, buffer)
					if got != ref {
						t.Fatalf("%s seed %d P=%d buffer %d: diverges from the unsharded plan at line %d",
							tc.name, seed, p, buffer, firstDiffLine(ref, got))
					}
				}
			}
		}
	}
}

// TestDeltaMergeRestoreEveryCut: a sharded sliding plan checkpointed at
// every tuple boundary and restored into a fresh plan continues with the
// unsharded plan's bytes — the merge's live groups come back from its
// shards' restore.
func TestDeltaMergeRestoreEveryCut(t *testing.T) {
	for _, tc := range deltaMergeCases() {
		for seed := int64(0); seed < 3; seed++ {
			us := deltaMergeTrace(seed)
			ref := runDelta(tc.build(0, stream.WindowSpec{}, false), us, 0)
			for p := 1; p <= 4; p++ {
				mk := func() *Compiled { return tc.build(p, stream.WindowSpec{}, false).Compile() }
				for cut := 0; cut <= len(us); cut++ {
					c1 := mk()
					for _, u := range us[:cut] {
						c1.Push("locations", u)
					}
					pre := renderDeltaAlerts(c1.Results())
					blob, err := c1.Checkpoint()
					if err != nil {
						t.Fatalf("%s seed %d P=%d cut %d: checkpoint: %v", tc.name, seed, p, cut, err)
					}
					c2 := mk()
					if err := c2.RestoreFrom(blob); err != nil {
						t.Fatalf("%s seed %d P=%d cut %d: restore: %v", tc.name, seed, p, cut, err)
					}
					for _, u := range us[cut:] {
						c2.Push("locations", u)
					}
					if got := pre + renderDeltaAlerts(c2.Close()); got != ref {
						t.Fatalf("%s seed %d P=%d cut %d: diverges from the unsharded plan at line %d",
							tc.name, seed, p, cut, firstDiffLine(ref, got))
					}
				}
			}
		}
	}
}

// TestRestoreFullListMergeCheckpoint: testdata holds a mid-stream
// checkpoint of a two-shard sliding Q3 (the first half of seededTrace(20,
// 120), SlideMS 2 s, ThresholdLbs 25, AreaFt 10) written while the merge
// re-merged full contribution lists every slide. Its merge blob (version 2)
// holds close counts and no pending window, and its shards' blobs are the
// delta window's version marker, so the delta merge restores it, takes its
// live groups back from the shards' replay, and continues with the bytes of
// an uninterrupted run. The file was written while the HAVING tail ran
// behind its own partition (box 5) and sequence merge (box 8): as written
// it is refused as topology drift, which is what an upgrading daemon sees;
// without those two entries the plan that runs HAVING as one box after the
// merge restores the rest unchanged.
func TestRestoreFullListMergeCheckpoint(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "q3_sliding_shards2_pre_delta_merge.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	lts, w := seededTrace(t, 20, 120, 0)
	us := make([]*core.UTuple, len(lts))
	for i, lt := range lts {
		us[i] = LocationUTuple(lt, w)
	}
	mk := func() *Compiled {
		return BuildQ3(Q3Config{SlideMS: 2 * stream.Second, Shards: 2, ThresholdLbs: 25, AreaFt: 10}).Compile()
	}
	whole := mk()
	for _, u := range us {
		whole.Push("locations", u)
	}
	ref := formatUAlerts(whole.Close())
	half := mk()
	for _, u := range us[:len(us)/2] {
		half.Push("locations", u)
	}
	pre := formatUAlerts(half.Results())
	err = mk().RestoreFrom(blob)
	if err == nil || !strings.Contains(err.Error(), `checkpoint box 5 is "⇉2·having`) ||
		!strings.Contains(err.Error(), "topology drift") {
		t.Fatalf("restoring the file as written: got %v, want topology drift at box 5", err)
	}
	c := mk()
	if err := c.RestoreFrom(dropCheckpointBoxes(t, blob, 5, 8)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, u := range us[len(us)/2:] {
		c.Push("locations", u)
	}
	if got := pre + formatUAlerts(c.Close()); got != ref {
		t.Fatalf("the restored plan diverges from an uninterrupted run at line %d", firstDiffLine(ref, got))
	}
}

// dropCheckpointBoxes re-encodes a Compiled.Checkpoint blob without the
// entries of the named box indexes.
func dropCheckpointBoxes(t *testing.T, blob []byte, drop ...int) []byte {
	t.Helper()
	r := snap.NewReader(blob)
	version, mark, n := r.U8(), r.Uvarint(), r.Len()
	type entry struct {
		idx  int
		name string
		blob []byte
	}
	var keep []entry
	for i := 0; i < n; i++ {
		e := entry{int(r.Uvarint()), r.String(), r.Blob()}
		if !slices.Contains(drop, e.idx) {
			keep = append(keep, e)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(keep) != n-len(drop) {
		t.Fatalf("checkpoint holds %d entries, %d of them at %v", n, n-len(keep), drop)
	}
	w := &snap.Writer{}
	w.U8(version)
	w.Uvarint(mark)
	w.Uvarint(uint64(len(keep)))
	for _, e := range keep {
		w.Uvarint(uint64(e.idx))
		w.String(e.name)
		w.Blob(e.blob)
	}
	return w.Bytes()
}
