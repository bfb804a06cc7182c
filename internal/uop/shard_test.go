package uop

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// The tests in this file pin the shard-parallel acceptance criterion:
// compiling with Shards(P) must leave the alert stream byte-identical to
// the unsharded plan — same windows, same dedup winners, same group folds,
// same order — under both the synchronous Push path and the channel
// executor, for P ∈ {1, 2, 4, 7}.

var shardCounts = []int{1, 2, 4, 7}

func q1ShardCfg() Q1Config {
	return Q1Config{
		WindowMS:     5 * stream.Second,
		ThresholdLbs: 120,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.3,
	}
}

func TestQ1ShardedMatchesUnsharded(t *testing.T) {
	lts, w := seededTrace(t, 60, 400, 0)
	cfg := q1ShardCfg()
	ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
	if ref == "" {
		t.Fatal("reference produced no alerts; test inputs too light")
	}
	if got := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 64))); got != ref {
		t.Fatalf("unsharded chan diverges from unsharded sync:\nref:\n%s\ngot:\n%s", ref, got)
	}
	for _, p := range shardCounts {
		scfg := cfg
		scfg.Shards = p
		if got := formatQ1(Q1Alerts(runTrace(BuildQ1(scfg), lts, nil, w, 0))); got != ref {
			t.Errorf("sharded sync P=%d diverges:\nref:\n%s\ngot:\n%s", p, ref, got)
		}
		for _, buffer := range []int{1, 64} {
			if got := formatQ1(Q1Alerts(runTrace(BuildQ1(scfg), lts, nil, w, buffer))); got != ref {
				t.Errorf("sharded chan P=%d buffer=%d diverges:\nref:\n%s\ngot:\n%s", p, buffer, ref, got)
			}
		}
	}
}

// TestQ1ShardedSlidingMatchesIncremental pins the sliding-window case:
// shard instances evaluate slides by per-shard rescan, which must match
// both the unsharded incremental path and the unsharded recompute path.
func TestQ1ShardedSlidingMatchesIncremental(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	cfg := q1ShardCfg()
	cfg.SlideMS = 1500 * stream.Millisecond
	ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0))) // unsharded incremental
	if ref == "" {
		t.Fatal("reference produced no alerts; test inputs too light")
	}
	if got := formatQ1(Q1Alerts(runTrace(buildQ1(cfg, true), lts, nil, w, 0))); got != ref {
		t.Fatalf("recompute baseline diverges from incremental:\nref:\n%s\ngot:\n%s", ref, got)
	}
	for _, p := range shardCounts {
		scfg := cfg
		scfg.Shards = p
		if got := formatQ1(Q1Alerts(runTrace(BuildQ1(scfg), lts, nil, w, 32))); got != ref {
			t.Errorf("sharded sliding P=%d diverges:\nref:\n%s\ngot:\n%s", p, ref, got)
		}
	}
}

// TestQ1ShardedStraggler pins straggler semantics: out-of-timestamp-order
// tuples must land in the same window sharded as unsharded — the partition
// broadcasts window closes from the global clock, so a shard that has seen
// no tuple past a boundary still closes on time.
func TestQ1ShardedStraggler(t *testing.T) {
	lts, w := seededTrace(t, 40, 300, 0)
	// Displace a spread of tuples backwards in time so they arrive after
	// their window's boundary has passed (and in some cases after tuples of
	// the same tag that carry later timestamps — the dedup-replace ×
	// straggler interplay).
	for i := 7; i < len(lts); i += 11 {
		lts[i].T -= 6 * stream.Second
		if lts[i].T < 0 {
			lts[i].T = 0
		}
	}
	cfg := q1ShardCfg()
	for _, slide := range []stream.Time{0, 2 * stream.Second} {
		cfg.SlideMS = slide
		ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
		if ref == "" {
			t.Fatalf("slide=%d: reference produced no alerts; test inputs too light", slide)
		}
		for _, p := range shardCounts {
			scfg := cfg
			scfg.Shards = p
			if got := formatQ1(Q1Alerts(runTrace(BuildQ1(scfg), lts, nil, w, 0))); got != ref {
				t.Errorf("slide=%d sharded sync P=%d diverges:\nref:\n%s\ngot:\n%s", slide, p, ref, got)
			}
			if got := formatQ1(Q1Alerts(runTrace(BuildQ1(scfg), lts, nil, w, 16))); got != ref {
				t.Errorf("slide=%d sharded chan P=%d diverges:\nref:\n%s\ngot:\n%s", slide, p, ref, got)
			}
		}
	}
}

// TestQ1ShardedHeavyStrategies covers the pooled-strategy merge path (one
// strategy run per group per window at the merge, including the seeded
// sampling reproducibility) on a smaller trace.
func TestQ1ShardedHeavyStrategies(t *testing.T) {
	lts, w := seededTrace(t, 30, 220, 0)
	for _, strat := range []core.Strategy{core.CFInvert, core.HistogramSampling} {
		cfg := q1ShardCfg()
		cfg.Strategy = strat
		cfg.Agg = core.AggOptions{Seed: 5}
		ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
		if ref == "" {
			t.Fatalf("%v: reference produced no alerts", strat)
		}
		for _, p := range []int{2, 4} {
			scfg := cfg
			scfg.Shards = p
			if got := formatQ1(Q1Alerts(runTrace(BuildQ1(scfg), lts, nil, w, 32))); got != ref {
				t.Errorf("%v sharded P=%d diverges:\nref:\n%s\ngot:\n%s", strat, p, ref, got)
			}
		}
	}
}

func TestQ2ShardedMatchesUnsharded(t *testing.T) {
	lts, w := seededTrace(t, 50, 300, 0.4)
	var hotSpot *rfid.Object
	for _, o := range w.Objects {
		if o.Type == "flammable" {
			hotSpot = o
			break
		}
	}
	if hotSpot == nil {
		t.Fatal("no flammable object")
	}
	var temps []TempReading
	for ts := stream.Time(0); ts < 40*stream.Second; ts += 2 * stream.Second {
		temps = append(temps,
			TempReading{TS: ts, X: hotSpot.Pos.X, Y: hotSpot.Pos.Y, Temp: dist.NewNormal(78, 5)},
			TempReading{TS: ts, X: hotSpot.Pos.X + 12, Y: hotSpot.Pos.Y, Temp: dist.NewNormal(24, 3)},
		)
	}
	cfg := Q2Config{RangeMS: 3 * stream.Second, TempThreshold: 60, LocTolFt: 6, MinProb: 0.05}
	ref := formatQ2(Q2Alerts(runTrace(BuildQ2(w, cfg), lts, temps, w, 0)))
	if ref == "" {
		t.Fatal("reference produced no alerts; test inputs too light")
	}
	for _, p := range shardCounts {
		scfg := cfg
		scfg.Shards = p
		if got := formatQ2(Q2Alerts(runTrace(BuildQ2(w, scfg), lts, temps, w, 0))); got != ref {
			t.Errorf("sharded sync P=%d diverges:\nref:\n%s\ngot:\n%s", p, ref, got)
		}
		for _, buffer := range []int{1, 64} {
			if got := formatQ2(Q2Alerts(runTrace(BuildQ2(w, scfg), lts, temps, w, buffer))); got != ref {
				t.Errorf("sharded chan P=%d buffer=%d diverges:\nref:\n%s\ngot:\n%s", p, buffer, ref, got)
			}
		}
	}
}

// TestQ1ShardedMissingKey: tuples without the dedup key must route
// deterministically (round-robin fallback), never panic, and never be
// deduplicated — matching the unsharded plan.
func TestQ1ShardedMissingKey(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 20, Seed: 9, MoveProb: -1})
	mk := func(ts stream.Time, tag int64, x, y float64) *core.UTuple {
		u := core.NewUTuple(ts,
			[]string{"x", "y", "z", "weight"},
			[]dist.Dist{dist.NewNormal(x, 2), dist.NewNormal(y, 2), dist.PointMass{V: 0}, dist.PointMass{V: 80}})
		if tag >= 0 {
			u.SetKey("tag", tag)
		}
		return u
	}
	feed := func(c *Compiled) {
		for i := 0; i < 60; i++ {
			ts := stream.Time(i) * 200 * stream.Millisecond
			c.Push("locations", mk(ts, int64(i%7), 10+float64(i%3), 12))
			if i%4 == 0 {
				c.Push("locations", mk(ts, -1, 14, 12)) // keyless tuple
			}
		}
	}
	cfg := q1ShardCfg()
	run := func(shards int) string {
		c := BuildQ1(Q1Config{
			WindowMS: cfg.WindowMS, ThresholdLbs: cfg.ThresholdLbs, AreaFt: cfg.AreaFt,
			Strategy: cfg.Strategy, MinAlertProb: cfg.MinAlertProb, Shards: shards,
		}).Compile()
		feed(c)
		return formatQ1(Q1Alerts(c.Close()))
	}
	_ = w
	ref := run(0)
	if ref == "" {
		t.Fatal("reference produced no alerts")
	}
	for _, p := range shardCounts {
		if got := run(p); got != ref {
			t.Errorf("missing-key sharded P=%d diverges:\nref:\n%s\ngot:\n%s", p, ref, got)
		}
	}
}

// TestShardedReleasesPerPush pins when a sharded plan releases alerts, not
// only which: under Push, the 2-shard Q1 and Q3 must hand Results() the same
// bytes as their unsharded twins after every single push. A tail stage that
// waited behind its own order-restoring merge for a watermark would release
// some alerts a push late.
func TestShardedReleasesPerPush(t *testing.T) {
	lts, w := seededTrace(t, 30, 250, 0)
	q1 := func(shards int) *Query {
		cfg := q1ShardCfg()
		cfg.Shards = shards
		return BuildQ1(cfg)
	}
	q3 := func(shards int) *Query {
		return BuildQ3(Q3Config{SlideMS: stream.Second, Shards: shards, AreaFt: 10})
	}
	for name, build := range map[string]func(int) *Query{"Q1": q1, "Q3": q3} {
		flat, sharded := build(0).Compile(), build(2).Compile()
		alerts, late := 0, 0
		for i, lt := range lts {
			u := LocationUTuple(lt, w)
			flat.Push("locations", u)
			sharded.Push("locations", u)
			want, got := formatQ3(flat.Results()), formatQ3(sharded.Results())
			alerts += strings.Count(want, "\n")
			if got != want {
				if late == 0 {
					t.Errorf("%s push %d: sharded released\n%s\nunsharded released\n%s", name, i, got, want)
				}
				late++
			}
		}
		if want, got := formatQ3(flat.Close()), formatQ3(sharded.Close()); got != want {
			t.Errorf("%s close: sharded released\n%s\nunsharded released\n%s", name, got, want)
		}
		if alerts == 0 {
			t.Fatalf("%s released no alerts before close; trace too light", name)
		}
		if late > 0 {
			t.Errorf("%s: %d of %d pushes released different alerts sharded", name, late, len(lts))
		}
	}
}

// TestShardedDescribe pins the rendered sharded diagrams: partition box,
// shard instances, merge, in deterministic wiring order. Q1's HAVING lies
// past its aggregate, so it runs as one box after the merge; Q2's filters
// lie upstream of the join's partition, so each keeps its round-robin
// shards behind a sequence merge.
func TestShardedDescribe(t *testing.T) {
	q1 := q1ShardCfg()
	q1.Shards = 2
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 4, Seed: 1, MoveProb: -1})
	for _, tc := range []struct {
		name string
		q    *Query
		want string
	}{
		{"Q1", BuildQ1(q1), `
[0] src:locations -> [1]:0
[1] ⇉2·γΣ(weight) -> [2]:0 [3]:0
[2] γΣ(weight)#0/2 -> [4]:0
[3] γΣ(weight)#1/2 -> [4]:1
[4] merge·γΣ(weight) -> [5]:0
[5] having(P(weight>120)≥0.3) -> [6]:0
[6] results ->
`},
		{"Q2", BuildQ2(w, Q2Config{Shards: 2}), `
[0] src:locations -> [1]:0
[1] ⇉2·σ(type=flammable) -> [2]:0 [3]:0
[2] σ(type=flammable)#0/2 -> [4]:0
[3] σ(type=flammable)#1/2 -> [4]:1
[4] ⋈seq·σ(type=flammable) -> [10]:0
[5] src:temps -> [6]:0
[6] ⇉2·σ(temp>60) -> [7]:0 [8]:0
[7] σ(temp>60)#0/2 -> [9]:0
[8] σ(temp>60)#1/2 -> [9]:1
[9] ⋈seq·σ(temp>60) -> [11]:0
[10] ⇉2·⋈(loc_equals±3) -> [13]:0 [14]:0
[11] ⇶·⋈(loc_equals±3) -> [13]:1 [14]:1
[12] ⋃·⋈(loc_equals±3) -> [15]:0
[13] ⋈(loc_equals±3) -> [12]:0
[14] ⋈(loc_equals±3) -> [12]:1
[15] results ->
`},
	} {
		if got, want := tc.q.Compile().Describe(), strings.TrimLeft(tc.want, "\n"); got != want {
			t.Errorf("sharded %s diagram mismatch:\nwant:\n%s\ngot:\n%s", tc.name, want, got)
		}
	}
}

// TestShardedStatsCount checks conservation through the sharded plan: the
// partition's routed output equals its input, and the shard instances'
// inputs sum to the partition's data output plus the broadcast closes.
func TestShardedStatsCount(t *testing.T) {
	lts, w := seededTrace(t, 30, 200, 0)
	cfg := q1ShardCfg()
	cfg.Shards = 3
	c := BuildQ1(cfg).Compile()
	for _, lt := range lts {
		c.Push("locations", LocationUTuple(lt, w))
	}
	c.Close()
	boxes := c.Graph.Boxes()
	var part *stream.Box
	var shardIn uint64
	for _, b := range boxes {
		if strings.HasPrefix(b.Op.Name(), "⇉3·γΣ") {
			part = b
		}
		if strings.Contains(b.Op.Name(), "γΣ(weight)#") {
			shardIn += b.Stats().In
		}
	}
	if part == nil {
		t.Fatal("partition box not found in\n" + c.Describe())
	}
	ps := part.Stats()
	if ps.In != uint64(len(lts)) {
		t.Errorf("partition saw %d tuples, want %d", ps.In, len(lts))
	}
	if ps.Out < ps.In {
		t.Errorf("partition emitted %d < routed %d", ps.Out, ps.In)
	}
	closes := ps.Out - ps.In // every non-data emission is a broadcast close
	if want := ps.In + 3*closes; shardIn != want {
		t.Errorf("shard inputs total %d, want %d (%d data + 3×%d closes)", shardIn, want, ps.In, closes)
	}
	_ = fmt.Sprint()
}
