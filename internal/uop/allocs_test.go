package uop

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// The tests in this file pin the allocation counts of whole Q1 plans on
// one seeded 3 000-tag trace: Push under tumbling and sliding windows,
// unsharded and on two shards, and a mid-stream checkpoint and restore.
// Allocation counts repeat run to run where timings do not, so a ceiling
// a little above the recorded count catches a path that starts allocating
// per tuple (or the rescan coming back) on any machine. Each ceiling is
// the count recorded when the test was written, plus at most 5 %.

var (
	allocTraceOnce sync.Once
	allocTrace     []*stream.Tuple
)

// allocTuples is the pins' trace: 3 000 tags at warehouse scan rates,
// 1 500 reader events through the real T operator, event time compressed
// 8× so a 5 s window holds mostly distinct tags. Tuples are lifted and
// wrapped once; plans treat their inputs as immutable, so every run
// replays the same tuples. Tuple ids come from a process-wide counter and
// checkpoints carry them as varints, so the counter is first raised to
// 2^28: every id minted afterwards encodes in five bytes, whichever tests
// ran before, and the checkpoint's size is the same in every run.
func allocTuples(t *testing.T) []*stream.Tuple {
	t.Helper()
	allocTraceOnce.Do(func() {
		stream.EnsureTupleIDFloor(1 << 28)
		lts, w := seededTrace(t, 3000, 1500, 0)
		for _, lt := range lts {
			lt.T /= 8
			allocTrace = append(allocTrace, core.Wrap(LocationUTuple(lt, w)))
		}
	})
	return allocTrace
}

// allocQ1Config is Q1 with CFApprox over 50 ft cells, tumbling when slide
// is 0.
func allocQ1Config(slide stream.Time, shards int) Q1Config {
	return Q1Config{
		WindowMS: 5 * stream.Second, SlideMS: slide,
		ThresholdLbs: 200, AreaFt: 50,
		Strategy: core.CFApprox, MinAlertProb: 0.5, Shards: shards,
	}
}

// pushAllocsPerTuple compiles a fresh plan per run, pushes every tuple and
// closes it, and returns the allocations per tuple pushed.
func pushAllocsPerTuple(ts []*stream.Tuple, cfg Q1Config, recompute bool) float64 {
	run := func() {
		c := buildQ1(cfg, recompute).Compile()
		for _, tu := range ts {
			c.PushTuple("locations", tu)
		}
		c.Close()
	}
	return testing.AllocsPerRun(2, run) / float64(len(ts))
}

// TestQ1EngineAllocs pins Q1's allocations per tuple under Push for each
// window shape, unsharded and with Shards(2), and holds the incremental
// sliding plan at no more than a quarter of its rescan oracle's count at
// Range/Slide 20 — the incremental path's headline, which a timing could
// only show on a quiet machine.
func TestQ1EngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ts := allocTuples(t)
	for _, tc := range []struct {
		name    string
		slide   stream.Time
		shards  int
		ceiling float64
	}{
		// Recorded: 0.8184, 1.9823, 0.5424, 1.9146, 6.0939, 2.2413; the
		// tumbling rows again at 0.3819 and 1.4790 once a window's moment
		// gates came from one array.
		{"tumbling", 0, 0, 0.40},
		{"slide=250ms", 250 * stream.Millisecond, 0, 2.05},
		{"slide=2500ms", 2500 * stream.Millisecond, 0, 0.565},
		{"tumbling/shards=2", 0, 2, 1.55},
		{"slide=250ms/shards=2", 250 * stream.Millisecond, 2, 6.35},
		{"slide=2500ms/shards=2", 2500 * stream.Millisecond, 2, 2.35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := pushAllocsPerTuple(ts, allocQ1Config(tc.slide, tc.shards), false)
			t.Logf("%d tuples: %.4f allocs per tuple (ceiling %.4g)", len(ts), got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%.4f allocs per tuple, ceiling %.4g", got, tc.ceiling)
			}
		})
	}
	// Recorded: incremental 1.9823, rescan 16.866.
	t.Run("incremental/rescan", func(t *testing.T) {
		cfg := allocQ1Config(250*stream.Millisecond, 0)
		inc := pushAllocsPerTuple(ts, cfg, false)
		rescan := pushAllocsPerTuple(ts, cfg, true)
		t.Logf("Range/Slide 20: incremental %.4f, rescan %.4f allocs per tuple", inc, rescan)
		if inc > rescan/4 {
			t.Errorf("incremental %.4f allocs per tuple is more than a quarter of the rescan's %.4f", inc, rescan)
		}
	})
}

// TestCheckpointAllocs pins the durable-state cost of a sliding two-shard Q1
// plan stopped halfway through the trace: the checkpoint's size, the
// allocations of one Checkpoint, and those of restoring it into a freshly
// compiled plan — whose own checkpoint must reproduce the blob byte for
// byte.
func TestCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// Recorded: 155 955 bytes, 81 allocs per Checkpoint, 20 271 per
	// compile+restore. With five-byte ids (see allocTuples) the size
	// repeats exactly, so its ceiling has no headroom.
	const (
		maxBytes         = 155955
		maxCkptAllocs    = 85
		maxRestoreAllocs = 21000
	)
	ts := allocTuples(t)
	cfg := allocQ1Config(stream.Second, 2)
	c := BuildQ1(cfg).Compile()
	for _, tu := range ts[:len(ts)/2] {
		c.PushTuple("locations", tu)
	}
	blob, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := testing.AllocsPerRun(10, func() {
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("checkpoint %d bytes, %v allocs", len(blob), ckpt)
	if len(blob) > maxBytes {
		t.Errorf("checkpoint is %d bytes, ceiling %d", len(blob), maxBytes)
	}
	if ckpt > maxCkptAllocs {
		t.Errorf("Checkpoint allocates %v times, ceiling %d", ckpt, maxCkptAllocs)
	}
	var restored *Compiled
	restore := testing.AllocsPerRun(5, func() {
		restored = BuildQ1(cfg).Compile()
		if err := restored.RestoreFrom(blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compile+restore %v allocs", restore)
	if restore > maxRestoreAllocs {
		t.Errorf("compile+restore allocates %v times, ceiling %d", restore, maxRestoreAllocs)
	}
	again, err := restored.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Errorf("checkpoint of the restored plan differs: %d bytes vs %d", len(again), len(blob))
	}
}
