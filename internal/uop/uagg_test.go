package uop

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// The tests in this file pin the PR 10 acceptance criterion for the new
// pluggable aggregates (streaming quantiles, probabilistic top-k
// dominating, and the ungrouped sum that joined them on the spine):
// identical alert bytes across every execution mode the grouped sum
// supports — synchronous Push, channel-parallel RunChan, the continuous
// live executor, incremental vs rescan realizations, in-process sharding,
// checkpoint/restore at mid-window split points, and the cluster split.

// uaggCase describes one new-aggregate query shape, parameterized over the
// execution knobs each test sweeps.
type uaggCase struct {
	name  string
	build func(shards int, slide stream.Time, recompute bool) *Query
}

func uaggMember() core.Membership {
	return q1Member(Q1Config{AreaFt: 10, MinAreaMass: 0.01}.withDefaults())
}

func uaggCases() []uaggCase {
	base := func(shards int, slide stream.Time, recompute bool) *Query {
		q := From("locations").
			Shards(shards).
			WindowSpec(stream.WindowSpec{Duration: 5 * stream.Second, Slide: slide}).
			DedupLatest("tag").
			GroupBy(uaggMember())
		if recompute {
			q = q.Recompute()
		}
		return q
	}
	return []uaggCase{
		{"quantile-exact", func(s int, sl stream.Time, rc bool) *Query {
			return base(s, sl, rc).
				Quantile("x", 0.5, core.QuantileOptions{}).
				Having(Greater(5, 0.2))
		}},
		{"quantile-estimator", func(s int, sl stream.Time, rc bool) *Query {
			// MaxExact 1 forces the sketch-estimator path for every group
			// with more than one contribution.
			return base(s, sl, rc).
				Quantile("x", 0.9, core.QuantileOptions{MaxExact: 1}).
				Having(Greater(5, 0.2))
		}},
		{"topk", func(s int, sl stream.Time, rc bool) *Query {
			return base(s, sl, rc).
				TopKDominating([]string{"x", "y"}, 2, core.TopKOptions{Label: "tag"}).
				Having(Greater(0.5, 0.2))
		}},
		{"sum-ungrouped", func(s int, sl stream.Time, rc bool) *Query {
			q := From("locations").
				Shards(s).
				WindowSpec(stream.WindowSpec{Duration: 5 * stream.Second, Slide: sl}).
				DedupLatest("tag")
			if rc {
				q = q.Recompute()
			}
			return q.Sum("weight", core.CFApprox, core.AggOptions{}).Having(Greater(0, 0.2))
		}},
	}
}

// formatUAlerts renders alert tuples at full float precision: timestamp,
// group, alert probability, every result attribute's moments, and the
// certain keys (rank, label) in sorted order.
func formatUAlerts(ts []*stream.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		u := core.Unwrap(t)
		p := 1.0
		if t.Schema().Index("p") >= 0 {
			p = t.Get("p").(float64)
		}
		fmt.Fprintf(&b, "%d|%s|%.17g", t.TS, t.Str("group"), p)
		for _, n := range u.Names() {
			if n == "group" {
				continue
			}
			d := u.Attr(n)
			fmt.Fprintf(&b, "|%s=%.17g/%.17g", n, d.Mean(), d.Variance())
		}
		if u.Keys.Len() > 0 {
			names := make([]string, 0, u.Keys.Len())
			for k := range u.Keys.Each() {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				fmt.Fprintf(&b, "|%s=%d", k, u.Key(k))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pushAlerts(q *Query, lts []rfid.LocationTuple, w *rfid.Warehouse) string {
	c := q.Compile()
	for _, lt := range lts {
		c.Push("locations", LocationUTuple(lt, w))
	}
	return formatUAlerts(c.Close())
}

func chanAlerts(q *Query, lts []rfid.LocationTuple, w *rfid.Warehouse, buffer int) string {
	c := q.Compile()
	out := c.RunChan(buffer, func(inject Inject) {
		for _, lt := range lts {
			inject("locations", LocationUTuple(lt, w))
		}
	})
	return formatUAlerts(out)
}

func liveAlerts(t *testing.T, q *Query, lts []rfid.LocationTuple, w *rfid.Warehouse) string {
	t.Helper()
	c := q.Compile()
	var got []*stream.Tuple
	c.OnResult(func(tp *stream.Tuple) { got = append(got, tp) })
	entry, port, ok := c.LookupSource("locations")
	if !ok {
		t.Fatal("plan lost its locations source")
	}
	sts := make([]stream.SourceTuple, len(lts))
	for i, lt := range lts {
		sts[i] = stream.SourceTuple{Box: entry, Port: port, T: core.Wrap(LocationUTuple(lt, w))}
	}
	if err := c.RunLive(context.Background(), 16, stream.SliceSource(sts), 0); err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	return formatUAlerts(got)
}

// TestNewAggModesByteIdentical sweeps both new aggregates across the
// single-process execution modes: the rescan reference vs the incremental
// path, Push vs RunChan vs RunLive, and Shards {2, 3} — all byte-identical.
func TestNewAggModesByteIdentical(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	for _, tc := range uaggCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, win := range []struct {
				name  string
				slide stream.Time
			}{{"tumbling", 0}, {"sliding", 2 * stream.Second}} {
				ref := pushAlerts(tc.build(0, win.slide, true), lts, w) // rescan reference
				if ref == "" {
					t.Fatalf("%s: reference produced no alerts; inputs too light", win.name)
				}
				if got := pushAlerts(tc.build(0, win.slide, false), lts, w); got != ref {
					t.Errorf("%s: incremental path diverges from rescan:\nref:\n%s\ngot:\n%s", win.name, ref, got)
				}
				for _, buffer := range []int{1, 64} {
					if got := chanAlerts(tc.build(0, win.slide, false), lts, w, buffer); got != ref {
						t.Errorf("%s: RunChan(buffer=%d) diverges:\nref:\n%s\ngot:\n%s", win.name, buffer, ref, got)
					}
				}
				if got := liveAlerts(t, tc.build(0, win.slide, false), lts, w); got != ref {
					t.Errorf("%s: RunLive diverges:\nref:\n%s\ngot:\n%s", win.name, ref, got)
				}
				for _, shards := range []int{2, 3} {
					if got := pushAlerts(tc.build(shards, win.slide, false), lts, w); got != ref {
						t.Errorf("%s: Shards(%d) diverges:\nref:\n%s\ngot:\n%s", win.name, shards, ref, got)
					}
				}
			}
		})
	}
}

// runClusterAlerts drives a query through the cluster split in-process:
// router-side partition (window clock + key routing), per-worker partial
// graphs whose outputs round-trip the wire codec, head-side merge.
func runClusterAlerts(t *testing.T, q *Query, lts []rfid.LocationTuple, w *rfid.Warehouse, workers int) string {
	t.Helper()
	plan, err := q.Cluster()
	if err != nil {
		t.Fatalf("Cluster(): %v", err)
	}
	head := plan.CompileHead(workers)
	var alerts []*stream.Tuple
	head.OnResult(func(a *stream.Tuple) { alerts = append(alerts, a) })

	wps := make([]*Compiled, workers)
	for i := range wps {
		wp := plan.CompileWorker()
		port := ClusterPort(i)
		wp.OnResult(func(pt *stream.Tuple) {
			data, err := stream.EncodeWireTuple(pt)
			if err != nil {
				t.Fatalf("encode partial: %v", err)
			}
			rt, err := stream.DecodeWireTuple(data)
			if err != nil {
				t.Fatalf("decode partial: %v", err)
			}
			head.PushTuple(port, rt)
		})
		wps[i] = wp
	}

	spec := plan.Window
	key := plan.Key
	part := stream.NewPartition("route", workers, stream.PartitionSpec{
		Clock: &spec,
		Route: func(ct *stream.Tuple) (int, bool) {
			u := core.Unwrap(ct)
			if key == "" || !u.HasKey(key) {
				return 0, false
			}
			return stream.ShardOfKey(u.Key(key), workers), true
		},
	})
	emit := func(out *stream.Tuple) {
		if end, ok := stream.WindowCloseOf(out); ok {
			seq, _ := stream.CloseSeq(out)
			for _, wp := range wps {
				wp.PushTuple(plan.Source, stream.NewWindowClose(end, seq))
			}
			return
		}
		slot, ok := out.RouteShard()
		if !ok {
			t.Fatalf("partition emitted unrouted data tuple %v", out)
		}
		wps[slot].PushTuple(plan.Source, out)
	}
	for _, lt := range lts {
		part.Process(0, core.Wrap(LocationUTuple(lt, w)), emit)
	}
	part.Flush(emit)
	head.Graph.Close()
	return formatUAlerts(alerts)
}

// TestNewAggClusterMatchesSingleProcess: the cluster split must reproduce
// the single-process alert bytes for both new aggregates, tumbling and
// sliding, worker counts {1, 2, 4}.
func TestNewAggClusterMatchesSingleProcess(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	for _, tc := range uaggCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, slide := range []stream.Time{0, 1500 * stream.Millisecond} {
				ref := pushAlerts(tc.build(0, slide, false), lts, w)
				if ref == "" {
					t.Fatal("reference produced no alerts")
				}
				for _, workers := range []int{1, 2, 4} {
					if got := runClusterAlerts(t, tc.build(0, slide, false), lts, w, workers); got != ref {
						t.Errorf("slide=%d cluster W=%d diverges:\nref:\n%s\ngot:\n%s", slide, workers, ref, got)
					}
				}
			}
		})
	}
}

// TestNewAggCheckpointRestoreByteIdentical: PR 6's split-point methodology
// applied to the new aggregates — checkpoint mid-stream (the cuts land
// mid-window), restore into a fresh plan, and the concatenated alerts must
// equal the uninterrupted run, across window shapes and shard counts.
func TestNewAggCheckpointRestoreByteIdentical(t *testing.T) {
	lts, w := seededTrace(t, 40, 300, 0)
	for _, tc := range uaggCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range []struct {
				name   string
				slide  stream.Time
				shards int
			}{
				{"tumbling", 0, 0},
				{"tumbling/shards=2", 0, 2},
				{"sliding-incremental", 2 * stream.Second, 0},
				{"sliding-incremental/shards=3", 2 * stream.Second, 3},
			} {
				mk := func() *Query { return tc.build(mode.shards, mode.slide, false) }
				ref := pushAlerts(mk(), lts, w)
				if ref == "" {
					t.Fatalf("%s: reference produced no alerts", mode.name)
				}
				for _, frac := range []int{1, 2, 3} {
					cut := len(lts) * frac / 4
					c1 := mk().Compile()
					for _, lt := range lts[:cut] {
						c1.Push("locations", LocationUTuple(lt, w))
					}
					pre := formatUAlerts(c1.Results())
					blob, err := c1.Checkpoint()
					if err != nil {
						t.Fatalf("%s cut %d: checkpoint: %v", mode.name, cut, err)
					}
					c2 := mk().Compile()
					if err := c2.RestoreFrom(blob); err != nil {
						t.Fatalf("%s cut %d: restore: %v", mode.name, cut, err)
					}
					for _, lt := range lts[cut:] {
						c2.Push("locations", LocationUTuple(lt, w))
					}
					if got := pre + formatUAlerts(c2.Close()); got != ref {
						t.Fatalf("%s cut %d: recovered alerts diverge:\nref:\n%s\ngot:\n%s", mode.name, cut, ref, got)
					}
				}
			}
		})
	}
}

// TestUngroupedSpineAggregates: without a GroupBy the spine runs the
// aggregate over the implicit single group "" — output tuples carry the
// empty group column, alerts flow through Having unchanged, and the sliding
// incremental path matches its rescan byte for byte, with and without
// DedupLatest.
func TestUngroupedSpineAggregates(t *testing.T) {
	lts, w := seededTrace(t, 30, 200, 0)
	for _, tc := range []struct {
		name  string
		dedup bool
		agg   func(*Query) *Query
	}{
		{"quantile", true, func(q *Query) *Query { return q.Quantile("x", 0.5, core.QuantileOptions{}) }},
		{"sum", true, func(q *Query) *Query { return q.Sum("weight", core.CFApprox, core.AggOptions{}) }},
		{"sum-no-dedup", false, func(q *Query) *Query { return q.Sum("weight", core.CLT, core.AggOptions{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := func(spec stream.WindowSpec) *Query {
				q := From("locations").WindowSpec(spec)
				if tc.dedup {
					q = q.DedupLatest("tag")
				}
				return q
			}
			got := pushAlerts(tc.agg(src(stream.WindowSpec{Duration: 5 * stream.Second})).Having(Greater(0, 0.05)), lts, w)
			if got == "" {
				t.Fatal("ungrouped aggregate produced no alerts")
			}
			for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
				if !strings.Contains(line, "||") { // empty group column
					t.Fatalf("ungrouped alert carries a group: %q", line)
				}
			}
			sliding := stream.WindowSpec{Duration: 5 * stream.Second, Slide: stream.Second}
			inc := pushAlerts(tc.agg(src(sliding)), lts, w)
			rc := pushAlerts(tc.agg(src(sliding).Recompute()), lts, w)
			if inc != rc {
				t.Errorf("ungrouped sliding %s: incremental vs rescan diverge at line %d", tc.name, firstDiffLine(rc, inc))
			}
		})
	}
}

// TestUngroupedSumSkipsImpossibleWindow: a window in which no tuple can exist
// (every Exist is 0) has no contribution, so it emits no row — as a grouped
// window without contributions does — under Push, Recompute and Shards(2).
func TestUngroupedSumSkipsImpossibleWindow(t *testing.T) {
	reading := func(ts stream.Time, exist float64) *core.UTuple {
		u := core.NewUTuple(ts, []string{"weight"}, []dist.Dist{dist.NewNormal(10, 1)})
		u.Exist = exist
		return u
	}
	// Window [0 s, 1 s) holds only impossible readings, [1 s, 2 s) one
	// possible reading among impossible ones.
	us := []*core.UTuple{reading(100, 0), reading(600, 0), reading(1200, 0.5), reading(1700, 0)}
	spec := stream.WindowSpec{Duration: stream.Second, Slide: stream.Second}
	for _, tc := range []struct {
		name string
		q    *Query
	}{
		{"push", From("s").WindowSpec(spec)},
		{"recompute", From("s").WindowSpec(spec).Recompute()},
		{"shards=2", From("s").Shards(2).WindowSpec(spec)},
	} {
		c := tc.q.Sum("weight", core.CFApprox, core.AggOptions{}).Compile()
		for _, u := range us {
			c.Push("s", u)
		}
		out := c.Close()
		if len(out) != 1 {
			t.Fatalf("%s: %d rows, want 1 (the window with a possible reading):\n%s", tc.name, len(out), formatUAlerts(out))
		}
		if m := core.Unwrap(out[0]).Attr("weight").Mean(); m != 5 {
			t.Errorf("%s: sum mean %g, want 5", tc.name, m)
		}
	}
}
