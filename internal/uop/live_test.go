package uop

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// Continuous-execution equivalence: the live executor must produce the
// same bytes as the synchronous Push path — including through the sharded
// rewrite, whose watermark merges used to stall sparse streams — and must
// deliver alerts while the stream is still open (no terminal Flush).

// TestQ1LiveMatchesPush pins the channel executor byte-identical to the
// Push executor across window shapes and shard counts; the finite source's end triggers
// the graceful drain, so final windows flush exactly like Close.
func TestQ1LiveMatchesPush(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	for _, tc := range []struct {
		name string
		cfg  Q1Config
	}{
		{"tumbling", Q1Config{WindowMS: 5 * stream.Second, ThresholdLbs: 120, AreaFt: 10, Strategy: core.CFApprox, MinAlertProb: 0.3}},
		{"tumbling-sharded", Q1Config{WindowMS: 5 * stream.Second, ThresholdLbs: 120, AreaFt: 10, Strategy: core.CFApprox, MinAlertProb: 0.3, Shards: 3}},
		{"sliding-sharded", Q1Config{WindowMS: 5 * stream.Second, SlideMS: 1 * stream.Second, ThresholdLbs: 120, AreaFt: 10, Strategy: core.CFApprox, MinAlertProb: 0.3, Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := formatQ1(Q1Alerts(runTrace(BuildQ1(tc.cfg), lts, nil, w, 0)))
			if ref == "" {
				t.Fatal("reference produced no alerts; test inputs too light")
			}
			if got := formatQ1(Q1Alerts(runTrace(BuildQ1(tc.cfg), lts, nil, w, 16))); got != ref {
				t.Errorf("Run on the channel executor diverges from Push path:\nref:\n%s\ngot:\n%s", ref, got)
			}
		})
	}
}

// TestQ1LiveAlertsWithoutClose is the query-level latency regression test:
// a sharded sliding-window Q1 plan fed a live prefix must emit exactly the
// alerts the offline Push path emits for that prefix — without Close, with
// the source still open. This walks every layer that used to stall: the
// feeder's partial injection batches, the partitioners' watermark cadence,
// the group-sum merge's close punctuations, and the having stage's
// order-restoring merge.
func TestQ1LiveAlertsWithoutClose(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	cfg := Q1Config{
		WindowMS: 5 * stream.Second, SlideMS: 1 * stream.Second,
		ThresholdLbs: 120, AreaFt: 10,
		Strategy: core.CFApprox, MinAlertProb: 0.3, Shards: 2,
	}

	// Reference: push the same prefix synchronously and read Results()
	// before any Close — alerts whose windows closed on data arrival alone.
	refC := BuildQ1(cfg).Compile()
	for _, lt := range lts {
		refC.Push("locations", LocationUTuple(lt, w))
	}
	ref := formatQ1(Q1Alerts(refC.Results()))
	if ref == "" {
		t.Fatal("prefix produced no pre-Close alerts; test inputs too light")
	}
	refN := len(Q1Alerts(refC.Close())) // remaining drain-only alerts, for the final check

	c := BuildQ1(cfg).Compile()
	alerts := make(chan *stream.Tuple, 1024)
	c.OnResult(func(tp *stream.Tuple) { alerts <- tp })
	entry, port, ok := c.LookupSource("locations")
	if !ok {
		t.Fatal("plan lost its locations source")
	}
	src := make(stream.ChanSource)
	done := make(chan error, 1)
	go func() {
		done <- c.RunLiveOpts(context.Background(), src, stream.LiveOptions{Buffer: 16, FlushEvery: 20 * time.Millisecond})
	}()
	for _, lt := range lts {
		src <- stream.SourceTuple{Box: entry, Port: port, T: core.Wrap(LocationUTuple(lt, w))}
	}

	// Collect exactly the reference alert count while the stream stays
	// open; any stall here is the regression.
	var got []*stream.Tuple
	want := len(q1AlertLines(ref))
	deadline := time.After(10 * time.Second)
	for len(got) < want {
		select {
		case tp := <-alerts:
			got = append(got, tp)
		case <-deadline:
			t.Fatalf("live plan delivered %d of %d pre-Close alerts, then stalled — batching/watermark latency regression", len(got), want)
		}
	}
	if gotS := formatQ1(Q1Alerts(got)); gotS != ref {
		t.Errorf("live pre-Close alerts diverge from offline prefix:\nref:\n%s\ngot:\n%s", ref, gotS)
	}

	// End of stream: the graceful drain must flush the remaining windows.
	close(src)
	if err := <-done; err != nil {
		t.Fatalf("RunLiveOpts: %v", err)
	}
	close(alerts)
	var tail []*stream.Tuple
	for tp := range alerts {
		tail = append(tail, tp)
	}
	if len(tail) != refN {
		t.Errorf("drain flushed %d alerts, offline Close flushed %d", len(tail), refN)
	}
}

// q1AlertLines splits a formatQ1 rendering back into lines (counting
// alerts without reparsing).
func q1AlertLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	return lines
}

// TestQ1LiveStragglerParity: out-of-timestamp-order arrivals under the
// continuous executor must land in the same windows as under Push — the
// partitioner's replicated clock, not arrival wall time, decides closes.
func TestQ1LiveStragglerParity(t *testing.T) {
	lts, w := seededTrace(t, 40, 250, 0)
	// Swap some neighbors to create timestamp stragglers.
	for i := 5; i+1 < len(lts); i += 7 {
		lts[i], lts[i+1] = lts[i+1], lts[i]
	}
	cfg := Q1Config{
		WindowMS: 5 * stream.Second, ThresholdLbs: 120, AreaFt: 10,
		Strategy: core.CFApprox, MinAlertProb: 0.3, Shards: 2,
	}
	ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
	if ref == "" {
		t.Fatal("reference produced no alerts")
	}
	if got := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 8))); got != ref {
		t.Errorf("straggler trace diverges under the channel executor:\nref:\n%s\ngot:\n%s", ref, got)
	}
}

// TestCompiledLifecycle pins the compiled-plan lifecycle at the query
// layer: Close after Close returns no duplicate alerts, and pushing into a
// finished plan fails loudly instead of corrupting windows.
func TestCompiledLifecycle(t *testing.T) {
	lts, w := seededTrace(t, 30, 150, 0)
	cfg := Q1Config{WindowMS: 5 * stream.Second, ThresholdLbs: 120, AreaFt: 10, Strategy: core.CFApprox, MinAlertProb: 0.3}
	c := BuildQ1(cfg).Compile()
	for _, lt := range lts {
		c.Push("locations", LocationUTuple(lt, w))
	}
	first := c.Close()
	if len(first) == 0 {
		t.Fatal("no alerts; inputs too light")
	}
	if dup := c.Close(); len(dup) != 0 {
		t.Fatalf("second Close returned %d duplicate alerts, want 0", len(dup))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Push into a closed plan did not panic")
			}
		}()
		c.Push("locations", LocationUTuple(lts[0], w))
	}()
	_ = fmt.Sprintf("%d", len(first))
}
