package uop

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

// TestQ1AlertsMatchGolden pins the gated-sum alert bytes against a golden
// file recorded before the aggregation spine was generalized (PR 10): the
// refactored sum path must emit byte-identical (%.17g) alerts to the
// pre-refactor code on the same seeded trace. Regenerate intentionally with
// UPDATE_GOLDEN=1 — never to paper over a diff.
func TestQ1AlertsMatchGolden(t *testing.T) {
	lts, w := seededTrace(t, 60, 400, 0)
	golden := filepath.Join("testdata", "q1_alerts_pr9.golden")
	var got string
	for _, strat := range []core.Strategy{core.CFApprox, core.CFInvert} {
		cfg := Q1Config{
			WindowMS:     5 * stream.Second,
			SlideMS:      1 * stream.Second,
			ThresholdLbs: 120,
			AreaFt:       10,
			Strategy:     strat,
			MinAlertProb: 0.3,
		}
		got += strat.String() + "\n" + formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
	}
	if got == "" {
		t.Fatal("no alerts produced; trace too light for a golden pin")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("sum alerts diverge from pre-refactor golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// formatQ3 renders quantile alerts for the golden pin: the moments every
// other alert format carries, plus — for the exact path's Histogram — the
// range and an FNV-1a hash over the Float64bits of every bin mass, so a
// single flipped bit in any bin mass changes the line.
func formatQ3(ts []*stream.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		d := core.Unwrap(t).Attr("weight")
		fmt.Fprintf(&b, "%d|%s|%.17g|%.17g|%.17g", t.TS, t.Str("group"), t.Get("p").(float64), d.Mean(), d.Variance())
		if h, ok := d.(*dist.Histogram); ok {
			sum := fnv.New64a()
			var buf [8]byte
			for _, p := range h.Masses() {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
				sum.Write(buf[:])
			}
			fmt.Fprintf(&b, "|%.17g|%.17g|%d|%016x", h.Lo, h.Hi, h.NBins(), sum.Sum64())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestQ3AlertsMatchGolden pins the QUANTILE alert bytes against a golden
// recorded on PR 11's code, before the order-statistic kernel replaced the
// per-edge tabulation (PR 12): tumbling and sliding windows, unsharded and
// two shards, the exact path under default options and one MaxExact: 4 run
// that forces the estimator. Regenerate intentionally with UPDATE_GOLDEN=1 —
// never to paper over a diff.
func TestQ3AlertsMatchGolden(t *testing.T) {
	lts, w := seededTrace(t, 60, 160, 0)
	golden := filepath.Join("testdata", "q3_alerts_pr11.golden")
	type run struct {
		slide  stream.Time
		shards int
		opts   core.QuantileOptions
	}
	runs := []run{
		{0, 0, core.QuantileOptions{}},
		{0, 2, core.QuantileOptions{}},
		{1 * stream.Second, 0, core.QuantileOptions{}},
		{1 * stream.Second, 2, core.QuantileOptions{}},
		{1 * stream.Second, 2, core.QuantileOptions{MaxExact: 4}},
	}
	var got string
	for _, r := range runs {
		q := BuildQ3(Q3Config{
			WindowMS:     5 * stream.Second,
			SlideMS:      r.slide,
			Shards:       r.shards,
			Level:        0.5,
			ThresholdLbs: 25,
			AreaFt:       10,
			MinAlertProb: 0.5,
			Quantile:     r.opts,
		})
		c := q.Compile()
		for _, lt := range lts {
			c.Push("locations", LocationUTuple(lt, w))
		}
		alerts := formatQ3(c.Close())
		if alerts == "" {
			t.Fatalf("run %+v produced no alerts; trace too light for a golden pin", r)
		}
		got += fmt.Sprintf("slide=%d shards=%d maxexact=%d\n", r.slide, r.shards, r.opts.MaxExact) + alerts
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("quantile alerts diverge from the PR 11 golden (%d bytes got, %d want); first difference at line %d",
			len(got), len(want), firstDiffLine(got, string(want)))
	}
}

// firstDiffLine is the 1-based line at which two texts first differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
