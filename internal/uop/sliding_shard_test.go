package uop

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// The tests in this file pin sharded sliding windows, whose shard instances
// run the delta window: alert bytes identical to the unsharded incremental
// and Recompute plans for every aggregate, shard count and executor;
// checkpoints at every tuple boundary; refusal of checkpoints written by the
// rescan partial that preceded it; and the allocation budget that keeps the
// rescan from coming back unnoticed.

// slidingShapes are the window shapes swept: the q3_slide_ckpt shape
// (Range/Slide = 5), a coarser slide, and a slide gap wider than the range.
var slidingShapes = []struct {
	name string
	spec stream.WindowSpec
}{
	{"range5", stream.WindowSpec{Duration: 5 * stream.Second, Slide: stream.Second}},
	{"slide2s", stream.WindowSpec{Duration: 5 * stream.Second, Slide: 2 * stream.Second}},
	{"gap>range", stream.WindowSpec{Duration: stream.Second, Slide: 2500 * stream.Millisecond}},
}

// allRows is a Having clause every row passes, so each test compares the
// aggregate's whole output while still running the post-aggregate stages.
var allRows = Greater(-1e9, 0.5)

// slidingCase is one aggregate, buildable over any window shape.
type slidingCase struct {
	name  string
	build func(shards int, spec stream.WindowSpec, recompute bool) *Query
}

func slidingAggCases() []slidingCase {
	q := func(shards int, spec stream.WindowSpec, recompute bool) *Query {
		q := From("locations").Shards(shards).WindowSpec(spec).DedupLatest("tag").GroupBy(uaggMember())
		if recompute {
			q = q.Recompute()
		}
		return q
	}
	return []slidingCase{
		{"sum-cfapprox", func(s int, sp stream.WindowSpec, rc bool) *Query {
			return q(s, sp, rc).Sum("weight", core.CFApprox, core.AggOptions{}).Having(allRows)
		}},
		{"sum-cfinvert", func(s int, sp stream.WindowSpec, rc bool) *Query {
			return q(s, sp, rc).Sum("weight", core.CFInvert, core.AggOptions{Seed: 5, GridN: 256}).Having(allRows)
		}},
		{"quantile", func(s int, sp stream.WindowSpec, rc bool) *Query {
			return q(s, sp, rc).Quantile("weight", 0.5, core.QuantileOptions{}).Having(allRows)
		}},
		{"topk", func(s int, sp stream.WindowSpec, rc bool) *Query {
			return q(s, sp, rc).TopKDominating([]string{"x", "y"}, 2, core.TopKOptions{Label: "tag"}).Having(allRows)
		}},
		{"sum-ungrouped", func(s int, sp stream.WindowSpec, rc bool) *Query {
			q := From("locations").Shards(s).WindowSpec(sp).DedupLatest("tag")
			if rc {
				q = q.Recompute()
			}
			return q.Sum("weight", core.CFApprox, core.AggOptions{}).Having(allRows)
		}},
	}
}

// slidingTrace is a seeded RFID trace made hostile for sliding partials:
// every 13th reading is displaced 3 s into the past (a straggler landing
// behind closed slides and behind newer readings of its own tag), and every
// 9th reading is echoed by a keyless copy, which the partitioner routes
// round-robin and dedup never touches. Tags re-report throughout, so
// latest-wins dedup replaces winners across slides. Each call builds fresh
// tuples.
func slidingTrace(lts []rfid.LocationTuple, w *rfid.Warehouse) []*core.UTuple {
	var us []*core.UTuple
	for i, lt := range lts {
		if i%13 == 7 {
			lt.T = max(lt.T-3*stream.Second, 0)
		}
		us = append(us, LocationUTuple(lt, w))
		if i%9 == 4 {
			k := LocationUTuple(lt, w)
			k.Keys = core.KeySet{}
			us = append(us, k)
		}
	}
	return us
}

func pushU(q *Query, us []*core.UTuple) string {
	c := q.Compile()
	for _, u := range us {
		c.Push("locations", u)
	}
	return formatUAlerts(c.Close())
}

func chanU(q *Query, us []*core.UTuple, buffer int) string {
	return formatUAlerts(q.Compile().RunChan(buffer, func(inject Inject) {
		for _, u := range us {
			inject("locations", u)
		}
	}))
}

func liveU(t *testing.T, q *Query, us []*core.UTuple) string {
	t.Helper()
	c := q.Compile()
	var got []*stream.Tuple
	c.OnResult(func(tp *stream.Tuple) { got = append(got, tp) })
	entry, port, ok := c.LookupSource("locations")
	if !ok {
		t.Fatal("plan lost its locations source")
	}
	sts := make([]stream.SourceTuple, len(us))
	for i, u := range us {
		sts[i] = stream.SourceTuple{Box: entry, Port: port, T: core.Wrap(u)}
	}
	if err := c.RunLive(context.Background(), 16, stream.SliceSource(sts), 0); err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	return formatUAlerts(got)
}

// TestShardedSlidingByteIdentical: sharded sliding plans — delta partials
// behind the run-merging merge — emit the %.17g bytes of the unsharded
// incremental plan and of the Recompute plan, for sum (CFApprox, CFInvert,
// ungrouped), quantile and top-k, P ∈ {1, 2, 4, 7}, under Push, RunChan and
// RunLive.
func TestShardedSlidingByteIdentical(t *testing.T) {
	lts, w := seededTrace(t, 40, 160, 0)
	for _, tc := range slidingAggCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, sh := range slidingShapes {
				shape, name := sh.spec, sh.name
				ref := pushU(tc.build(0, shape, false), slidingTrace(lts, w))
				if strings.Count(ref, "\n") < 20 {
					t.Fatalf("%s: reference has %d rows; inputs too light", name, strings.Count(ref, "\n"))
				}
				if got := pushU(tc.build(0, shape, true), slidingTrace(lts, w)); got != ref {
					t.Fatalf("%s: Recompute diverges from the incremental plan at line %d", name, firstDiffLine(ref, got))
				}
				if got := pushU(tc.build(2, shape, true), slidingTrace(lts, w)); got != ref {
					t.Errorf("%s: sharded Recompute (rescan partials) diverges at line %d", name, firstDiffLine(ref, got))
				}
				for _, p := range shardCounts {
					if got := pushU(tc.build(p, shape, false), slidingTrace(lts, w)); got != ref {
						t.Errorf("%s: Push P=%d diverges at line %d", name, p, firstDiffLine(ref, got))
					}
					if got := chanU(tc.build(p, shape, false), slidingTrace(lts, w), 8); got != ref {
						t.Errorf("%s: RunChan P=%d diverges at line %d", name, p, firstDiffLine(ref, got))
					}
					if got := liveU(t, tc.build(p, shape, false), slidingTrace(lts, w)); got != ref {
						t.Errorf("%s: RunLive P=%d diverges at line %d", name, p, firstDiffLine(ref, got))
					}
				}
			}
		})
	}
}

// TestShardedSlidingCheckpointEveryTuple: a two-shard sliding quantile, and a
// two-shard ungrouped sliding sum, checkpointed at every tuple boundary —
// partials mid-slide, the merge holding windows only one shard has closed —
// and restored into a fresh plan continue byte-identically.
func TestShardedSlidingCheckpointEveryTuple(t *testing.T) {
	lts, w := seededTrace(t, 20, 40, 0)
	for _, tc := range slidingAggCases() {
		if tc.name != "quantile" && tc.name != "sum-ungrouped" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Query { return tc.build(2, slidingShapes[0].spec, false) }
			ref := pushU(mk(), slidingTrace(lts, w))
			if ref == "" {
				t.Fatal("reference produced no alerts")
			}
			us := slidingTrace(lts, w)
			for cut := 0; cut <= len(us); cut++ {
				c1 := mk().Compile()
				for _, u := range us[:cut] {
					c1.Push("locations", u)
				}
				pre := formatUAlerts(c1.Results())
				blob, err := c1.Checkpoint()
				if err != nil {
					t.Fatalf("cut %d: checkpoint: %v", cut, err)
				}
				c2 := mk().Compile()
				if err := c2.RestoreFrom(blob); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				for _, u := range us[cut:] {
					c2.Push("locations", u)
				}
				if got := pre + formatUAlerts(c2.Close()); got != ref {
					t.Fatalf("cut %d: recovered alerts diverge at line %d", cut, firstDiffLine(ref, got))
				}
			}
		})
	}
}

// TestRestoreRejectsRescanPartialCheckpoint: testdata holds a checkpoint of
// a two-shard sliding Q1 written while shard instances still snapshotted
// their rescan window (a blob starting with the same version byte as a
// delta window's). Restoring it must fail on the first shard instance —
// never decode it as delta-window state — and fail on the version byte.
func TestRestoreRejectsRescanPartialCheckpoint(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "q1_sliding_shards2_pre_delta.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	err = BuildQ1(ckptQ1Config(2*stream.Second, 2, false)).Compile().RestoreFrom(blob)
	if err == nil {
		t.Fatal("a rescan-partial checkpoint restored into delta partials")
	}
	if !strings.Contains(err.Error(), "γΣ(weight)#0/2") || !strings.Contains(err.Error(), "snapshot version 1") {
		t.Errorf("restore failed, but not on the first shard instance's version byte: %v", err)
	}
}

// TestShardedSlidingAllocs is the allocation contract of a sharded sliding
// plan, in the benchmark's q3_slide_ckpt shape: ≤ 50 allocs and ≤ 7.5 KB per
// tuple pushed (the per-slide rescan this replaced cost about 77 and
// 9.6 KB). Allocation counts repeat run to run, so a budget catches the
// rescan coming back where a timing could not.
func TestShardedSlidingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// The finalize pool's goroutines allocate per worker; pin their count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	lts, w := seededTrace(t, 300, 120, 0)
	us := make([]*core.UTuple, len(lts))
	for i, lt := range lts {
		// The daemon's wire tuples: every location summarized as a Gaussian.
		u := core.NewUTuple(lt.T, []string{"x", "y", "z", "weight"}, []dist.Dist{
			dist.NewNormal(lt.X.Mean(), lt.X.Std()), dist.NewNormal(lt.Y.Mean(), lt.Y.Std()),
			dist.NewNormal(lt.Z.Mean(), lt.Z.Std()), dist.PointMass{V: w.Weight(lt.TagID)},
		})
		u.SetKey("tag", lt.TagID)
		us[i] = u
	}
	run := func() {
		c := BuildQ3(Q3Config{SlideMS: stream.Second, Shards: 2, AreaFt: 10}).Compile()
		for _, u := range us {
			c.Push("locations", u)
		}
		c.Close()
	}
	run() // warm pools and lazily built tables
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	n := float64(len(us))
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d tuples: %.1f allocs, %.0f B per tuple", len(us), allocs, bytes)
	if allocs > 50 || bytes > 7500 {
		t.Errorf("%.1f allocs and %.0f B per tuple, budget 50 and 7500", allocs, bytes)
	}
}

// TestQ1PushAllocs pins the engine-spine allocation budget of Q1 — tumbling,
// unsharded, CFApprox, the daemon's configuration — so the membership kernel
// and the lazy moment gate cannot quietly regrow their per-tuple garbage.
// Like the benchmark ledger's uop.push_q1 row it pushes already wrapped wire
// tuples into a plan compiled outside the measured span.
func TestQ1PushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// The benchmark's trace shape: a large floor, event time compressed 8×.
	lts, w := seededTrace(t, 3000, 300, 0)
	ts := make([]*stream.Tuple, len(lts))
	for i, lt := range lts {
		u := core.NewUTuple(lt.T/8, []string{"x", "y", "z", "weight"}, []dist.Dist{
			dist.NewNormal(lt.X.Mean(), lt.X.Std()), dist.NewNormal(lt.Y.Mean(), lt.Y.Std()),
			dist.NewNormal(lt.Z.Mean(), lt.Z.Std()), dist.PointMass{V: w.Weight(lt.TagID)},
		})
		u.SetKey("tag", lt.TagID)
		ts[i] = core.Wrap(u)
	}
	cfg := Q1Config{WindowMS: 5 * stream.Second, ThresholdLbs: 200, AreaFt: 10,
		Strategy: core.CFApprox, MinAlertProb: 0.5}
	run := func(c *Compiled) {
		for _, tu := range ts {
			c.PushTuple("locations", tu)
		}
		c.Close()
	}
	run(BuildQ1(cfg).Compile()) // warm pools and the interned area names
	c := BuildQ1(cfg).Compile()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(c)
	runtime.ReadMemStats(&after)
	n := float64(len(ts))
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d tuples: %.2f allocs, %.0f B per tuple", len(ts), allocs, bytes)
	if allocs > 3.5 || bytes > 400 {
		t.Errorf("%.2f allocs and %.0f B per tuple, budget 3.5 and 400", allocs, bytes)
	}
}
