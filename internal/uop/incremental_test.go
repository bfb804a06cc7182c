package uop

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// The tests in this file pin the incremental-aggregation acceptance
// criterion: on a sliding-window Q1 over a seeded T-operator trace, the
// delta-maintained path (per-group sum accumulators fed by window deltas)
// must produce byte-identical alerts to the per-slide recompute path, under
// both the synchronous Push executor and the channel executor through Compiled.Run — and
// with parallel per-group emission, which the heavy strategies fan out to.

func slidingQ1Config(slide stream.Time) Q1Config {
	return Q1Config{
		WindowMS:     5 * stream.Second,
		SlideMS:      slide,
		ThresholdLbs: 120,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.3,
	}
}

func TestSlidingQ1IncrementalMatchesRecompute(t *testing.T) {
	// CFInvert emits through a pool of GOMAXPROCS workers; four of them
	// exercise the parallel emission on any host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	lts, w := seededTrace(t, 60, 400, 0)
	for _, slide := range []stream.Time{1 * stream.Second, 2500 * stream.Millisecond} {
		for _, strat := range []core.Strategy{core.CFApprox, core.CFInvert} {
			cfg := slidingQ1Config(slide)
			cfg.Strategy = strat
			cfg.Agg = core.AggOptions{GridN: 256}
			ref := formatQ1(Q1Alerts(runTrace(buildQ1(cfg, true), lts, nil, w, 0)))
			if ref == "" {
				t.Fatal("recompute reference produced no alerts; test inputs too light")
			}
			if got := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0))); got != ref {
				t.Errorf("slide=%d %v: incremental Push diverges from recompute:\nref:\n%s\ngot:\n%s",
					slide, strat, ref, got)
			}
			for _, buffer := range []int{1, 64} {
				if got := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, buffer))); got != ref {
					t.Errorf("slide=%d %v: incremental Run(buffer=%d) diverges:\nref:\n%s\ngot:\n%s",
						slide, strat, buffer, ref, got)
				}
			}
		}
	}
}

// TestSlidingQ1IncrementalStrategies extends the byte-identical pin to the
// pooled-state strategies (one CF inversion / seeded sampling run per
// emission over the live pool).
func TestSlidingQ1IncrementalStrategies(t *testing.T) {
	lts, w := seededTrace(t, 40, 200, 0)
	for _, strat := range []core.Strategy{core.CLT, core.CFInvert} {
		cfg := slidingQ1Config(1 * stream.Second)
		cfg.Strategy = strat
		cfg.Agg = core.AggOptions{GridN: 256}
		ref := formatQ1(Q1Alerts(runTrace(buildQ1(cfg, true), lts, nil, w, 0)))
		if ref == "" {
			t.Fatalf("%v: recompute reference produced no alerts", strat)
		}
		if got := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0))); got != ref {
			t.Errorf("%v: incremental diverges from recompute:\nref:\n%s\ngot:\n%s", strat, ref, got)
		}
	}
}

// TestSlidingQ1SupersetOfTumbling sanity-checks the sliding semantics
// themselves: with Slide == Duration the sliding path must reproduce the
// tumbling alerts exactly (same boundaries, same content), tying the new
// path back to the PR2-pinned tumbling reference.
func TestSlidingQ1SupersetOfTumbling(t *testing.T) {
	lts, w := seededTrace(t, 60, 400, 0)
	tumble := slidingQ1Config(0)
	slide := slidingQ1Config(tumble.WindowMS)
	ref := formatQ1(Q1Alerts(runTrace(BuildQ1(tumble), lts, nil, w, 0)))
	got := formatQ1(Q1Alerts(runTrace(BuildQ1(slide), lts, nil, w, 0)))
	// The tumbling flush stamps its final partial window at winStart +
	// Duration; the sliding drain emits the same content, so alert lines
	// must match one-for-one.
	if ref == "" || got == "" {
		t.Fatal("no alerts")
	}
	if refN, gotN := strings.Count(ref, "\n"), strings.Count(got, "\n"); refN != gotN {
		t.Fatalf("alert counts differ: tumbling %d, slide=range %d\nref:\n%s\ngot:\n%s",
			refN, gotN, ref, got)
	}
	if ref != got {
		t.Errorf("slide=range diverges from tumbling:\nref:\n%s\ngot:\n%s", ref, got)
	}
}
