package uop

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

// TestRunMergesSourcesByTimestamp pins Compiled.Run's one time merge on a
// two-source trace with cross-source timestamp ties. Both sources enter
// the join box directly, and the join emits each match when the second
// tuple of the pair arrives, so its Push output spells out the arrival
// order. That output must equal a hand-fed reference in the documented
// order (timestamp, then source name: "a" before "b") and differ from the
// opposite tie order. The channel executor keeps each source's order but
// not the interleaving across the join's two ports, so each buffer's
// output must be byte-identical to Push once both are put in canonical
// (sorted) order.
func TestRunMergesSourcesByTimestamp(t *testing.T) {
	mk := func(key string, id int64, ts stream.Time) *core.UTuple {
		u := core.NewUTuple(ts, []string{"x"}, []dist.Dist{dist.PointMass{V: float64(id)}})
		u.SetKey(key, id)
		return u
	}
	a := []*core.UTuple{mk("ia", 1, 0), mk("ia", 2, 0), mk("ia", 3, 5), mk("ia", 4, 9)}
	b := []*core.UTuple{mk("ib", 1, 0), mk("ib", 2, 0), mk("ib", 3, 5), mk("ib", 4, 7), mk("ib", 5, 9)}
	build := func() *Compiled {
		return From("a").JoinProb(From("b"), 3, []string{"x"}, 100, 0).Compile()
	}
	format := func(ts []*stream.Tuple) []string {
		var lines []string
		for _, t := range ts {
			u := core.Unwrap(t)
			lines = append(lines, fmt.Sprintf("%d ia=%d ib=%d exist=%.17g x=%.17g",
				u.TS, u.Key("ia"), u.Key("ib"), u.Exist, u.Attr("x").Mean()))
		}
		return lines
	}
	// handFed pushes a and b in the given interleaving, one letter per tuple.
	handFed := func(order string) string {
		c := build()
		var i, j int
		for _, src := range order {
			if src == 'a' {
				c.Push("a", a[i])
				i++
			} else {
				c.Push("b", b[j])
				j++
			}
		}
		return strings.Join(format(c.Close()), "\n")
	}
	aFirst := handFed("aabbabbab") // a, b timestamps: 0 0 | 0 0 | 5 | 5 | 7 | 9 | 9
	bFirst := handFed("bbaababba")
	if aFirst == bFirst {
		t.Fatal("the reference query cannot tell the two tie orders apart")
	}

	tr := Trace{"b": b, "a": a}
	push := format(build().Run(tr, 0))
	if got := strings.Join(push, "\n"); got != aFirst {
		t.Fatalf("Run(push) does not merge ties by source name:\nwant:\n%s\ngot:\n%s", aFirst, got)
	}
	sort.Strings(push)
	ref := strings.Join(push, "\n")
	for _, buffer := range []int{1, 16, 256} {
		got := format(build().Run(tr, buffer))
		sort.Strings(got)
		if s := strings.Join(got, "\n"); s != ref {
			t.Errorf("Run(buffer=%d) diverges from Push:\nref:\n%s\ngot:\n%s", buffer, ref, s)
		}
	}
}

// TestRunQ3Q4BothExecutors runs the quantile (Q3) and top-k dominating
// (Q4) reference chains through Compiled.Run under Push and the channel
// executor, tumbling and sliding: every buffer must match Push byte for
// byte.
func TestRunQ3Q4BothExecutors(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	for _, slide := range []stream.Time{0, 2 * stream.Second} {
		for name, q := range map[string]*Query{
			"q3": BuildQ3(Q3Config{SlideMS: slide, AreaFt: 10, ThresholdLbs: 5, MinAlertProb: 0.2}),
			"q4": BuildQ4(Q4Config{SlideMS: slide, K: 2, MinCount: 0.5, MinProb: 0.2}),
		} {
			ref := formatUAlerts(runTrace(q, lts, nil, w, 0))
			if ref == "" {
				t.Fatalf("%s slide=%d: no alerts, the comparison is vacuous", name, slide)
			}
			for _, buffer := range []int{1, 16, 256} {
				if got := formatUAlerts(runTrace(q, lts, nil, w, buffer)); got != ref {
					t.Errorf("%s slide=%d: Run(buffer=%d) diverges from Push at line %d",
						name, slide, buffer, firstDiffLine(ref, got))
				}
			}
		}
	}
}
