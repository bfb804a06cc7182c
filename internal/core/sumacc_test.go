package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// recomputeRef mirrors what the rescan path does with the same live
// contributions: gate each in insertion order, then Sum.
func recomputeRef(live []gatedInput, strat Strategy, opts AggOptions) dist.Dist {
	ds := make([]dist.Dist, len(live))
	for i, c := range live {
		ds[i] = BernoulliGate(c.d, c.p)
	}
	return Sum(ds, strat, opts)
}

type gatedInput struct {
	id uint64
	d  dist.Dist
	p  float64
}

// sumInput wraps one attribute value as the tuple a sum accumulator reads.
func sumInput(d dist.Dist) *UTuple { return NewUTuple(0, []string{"v"}, []dist.Dist{d}) }

// sumResult is the accumulator's one result distribution.
func sumResult(acc Acc) dist.Dist { return acc.Result(nil)[0].D }

// TestSumStateMatchesRecompute drives the sum accumulator through a random
// insert/evict/replace workload and checks Result against a fresh recompute
// over the surviving contributions after every step — bit-identical for the
// moment strategies' refold, and for the pooled strategies too (they rerun
// the same strategy over the same ordered inputs).
func TestSumStateMatchesRecompute(t *testing.T) {
	for _, strat := range []Strategy{CFApprox, CLT, CFInvert} {
		t.Run(strat.String(), func(t *testing.T) {
			g := rng.New(21)
			opts := AggOptions{GridN: 256}
			acc := NewSumAgg("v", strat, opts).NewAcc()
			var live []gatedInput
			for step := 0; step < 400; step++ {
				switch {
				case len(live) == 0 || g.Float64() < 0.55:
					in := gatedInput{
						d: dist.NewNormal(g.Normal(50, 20), math.Abs(g.Normal(0, 5))+0.1),
						p: g.Float64(),
					}
					in.id = acc.Add(sumInput(in.d), in.p)
					live = append(live, in)
				case g.Float64() < 0.7:
					// FIFO eviction.
					acc.Remove(live[0].id)
					live = live[1:]
				default:
					// Keyed replace: remove from the middle.
					i := g.Intn(len(live))
					acc.Remove(live[i].id)
					live = append(live[:i], live[i+1:]...)
				}
				if acc.Len() != len(live) {
					t.Fatalf("step %d: Len = %d, want %d", step, acc.Len(), len(live))
				}
				if len(live) == 0 {
					continue
				}
				if step%7 != 0 { // Result is emission-time; don't call every step for CFInvert
					continue
				}
				got := sumResult(acc)
				want := recomputeRef(live, strat, opts)
				if gm, wm := got.Mean(), want.Mean(); gm != wm {
					t.Fatalf("step %d: mean %.17g != recompute %.17g", step, gm, wm)
				}
				if gv, wv := got.Variance(), want.Variance(); gv != wv {
					t.Fatalf("step %d: variance %.17g != recompute %.17g", step, gv, wv)
				}
				if gc, wc := got.CDF(55), want.CDF(55); gc != wc {
					t.Fatalf("step %d: CDF(55) %.17g != recompute %.17g", step, gc, wc)
				}
			}
		})
	}
}

// TestEntryLogCompaction exercises the accumulator log's absolute-sequence
// bookkeeping across the compaction thresholds.
func TestEntryLogCompaction(t *testing.T) {
	acc := NewSumAgg("v", CFApprox, AggOptions{}).NewAcc()
	u := sumInput(dist.PointMass{V: 1})
	// Long FIFO churn forces repeated compactions.
	var handles []uint64
	for i := 0; i < 1000; i++ {
		handles = append(handles, acc.Add(u, 1))
		if i >= 10 {
			acc.Remove(handles[i-10])
		}
	}
	if acc.Len() != 10 {
		t.Fatalf("Len = %d, want 10", acc.Len())
	}
	if got := sumResult(acc).Mean(); got != 10 {
		t.Errorf("Result mean = %g, want 10", got)
	}
	if n := len(acc.(*sumAcc).log.entries); n > 64+10 {
		t.Errorf("entry log not compacted: %d entries for 10 live", n)
	}
	// Removing unknown ids is a no-op.
	acc.Remove(99999)
	if acc.Len() != 10 {
		t.Errorf("unknown Remove changed Len to %d", acc.Len())
	}
}

// TestSumAccAllocs pins the sum accumulator's allocation counts in a warm
// sliding window of 40 live contributions: per contribution one Add and one
// Remove, per emission one Result. The moment strategies allocate nothing
// per contribution and box one Normal per emission; CFInvert builds the
// gate mixture per contribution and runs one inversion per emission. The
// counts are those of the accumulator this one replaced.
func TestSumAccAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		strat             Strategy
		opts              AggOptions
		perContrib, perEm float64
	}{
		{CFApprox, AggOptions{}, 0, 1},
		{CLT, AggOptions{}, 0, 1},
		{CFInvert, AggOptions{GridN: 256}, 2, 5},
	} {
		us := make([]*UTuple, 96)
		for i := range us {
			us[i] = sumInput(dist.NewNormal(100+float64(i), 3))
		}
		perContrib, perEm := accAllocs(NewSumAgg("v", tc.strat, tc.opts).NewAcc(), us, 40)
		t.Logf("%v: %v allocs per Add+Remove, %v per Result", tc.strat, perContrib, perEm)
		if perContrib > tc.perContrib || perEm > tc.perEm {
			t.Errorf("%v: %v allocs per Add+Remove, %v per Result; budget %v and %v",
				tc.strat, perContrib, perEm, tc.perContrib, tc.perEm)
		}
	}
}

// accAllocs warms acc as a sliding window of live contributions drawn
// round-robin from us, then returns the allocations per Add+Remove step and
// per Result.
func accAllocs(acc Acc, us []*UTuple, live int) (perContrib, perEm float64) {
	handles := make([]uint64, 0, 4096)
	next := 0
	step := func() {
		next++
		handles = append(handles, acc.Add(us[next%len(us)], 0.25+0.25*float64(next%3)))
		if len(handles) > live {
			acc.Remove(handles[0])
			handles = handles[1:]
		}
	}
	for i := 0; i < 500; i++ { // warm the log past its compaction threshold
		step()
	}
	handles = append(make([]uint64, 0, 4096), handles...) // room for the measured steps
	perContrib = testing.AllocsPerRun(1000, step)
	dst := acc.Result(nil)
	perEm = testing.AllocsPerRun(50, func() { dst = acc.Result(dst) })
	return perContrib, perEm
}

// TestQuantileTopKAccAllocs pins the quantile and top-k accumulators the
// way TestSumAccAllocs pins the sum's: allocations per Add+Remove and per
// Result in a warm sliding window. The quantile runs a 14-contribution
// window of certain weights (the exact kernel at q3_slide_ckpt's mean
// window) and a 64-contribution window of Normals (the sketch estimator
// past MaxExact); top-k ranks 40 objects with Normal coordinates. Each
// budget is the count recorded when the test was written, plus at most
// 5 %.
func TestQuantileTopKAccAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := rng.New(41)
	atoms := make([]*UTuple, 96)
	normals := make([]*UTuple, 96)
	points := make([]*UTuple, 96)
	for i := range atoms {
		atoms[i] = sumInput(dist.PointMass{V: float64(1 + i%37)})
		normals[i] = sumInput(dist.NewNormal(100+float64(i), 3))
		points[i] = topkUTuple(int64(i), int64(i),
			dist.NewNormal(g.Normal(0, 10), 1+g.Float64()), dist.NewNormal(g.Normal(0, 10), 1+g.Float64()))
	}
	for _, tc := range []struct {
		name              string
		agg               UAgg
		us                []*UTuple
		live              int
		perContrib, perEm float64
	}{
		// Recorded: 1 and 3, 1 and 1, 2 and 31.
		{"quantile/atoms/14", NewQuantileAgg("v", 0.5, QuantileOptions{}), atoms, 14, 1, 3},
		{"quantile/normal/64", NewQuantileAgg("v", 0.5, QuantileOptions{}), normals, 64, 1, 1},
		{"topk/normal/40", NewTopKDominatingAgg([]string{"x", "y"}, 3, TopKOptions{Label: "tag"}), points, 40, 2, 32},
	} {
		perContrib, perEm := accAllocs(tc.agg.NewAcc(), tc.us, tc.live)
		t.Logf("%s: %v allocs per Add+Remove, %v per Result", tc.name, perContrib, perEm)
		if perContrib > tc.perContrib || perEm > tc.perEm {
			t.Errorf("%s: %v allocs per Add+Remove, %v per Result; budget %v and %v",
				tc.name, perContrib, perEm, tc.perContrib, tc.perEm)
		}
	}
}

// TestCountReusesBuffer pins the O(n²)-allocation fix: the Poisson-binomial
// DP must allocate a bounded number of times regardless of window size, and
// still produce the exact distribution.
func TestCountReusesBuffer(t *testing.T) {
	mk := func(n int) []*UTuple {
		us := make([]*UTuple, n)
		for i := range us {
			us[i] = NewUTuple(0, []string{"v"}, []dist.Dist{dist.PointMass{V: 1}})
			us[i].Exist = 0.25 + 0.5*float64(i%3)/2
		}
		return us
	}
	// Correctness: against the closed binomial for equal probabilities.
	eq := make([]*UTuple, 20)
	for i := range eq {
		eq[i] = NewUTuple(0, []string{"v"}, []dist.Dist{dist.PointMass{V: 1}})
		eq[i].Exist = 0.3
	}
	d := Count(eq)
	wantMean := 20 * 0.3
	if math.Abs(d.Mean()-wantMean) > 1e-9 {
		t.Errorf("Count mean = %g, want %g", d.Mean(), wantMean)
	}
	// The histogram representation spreads each integer's mass over a
	// unit bin, adding width²/12 of within-bin variance.
	wantVar := 20*0.3*0.7 + 1.0/12
	if math.Abs(d.Variance()-wantVar) > 1e-9 {
		t.Errorf("Count variance = %g, want %g", d.Variance(), wantVar)
	}
	small := mk(16)
	large := mk(128)
	allocsSmall := testing.AllocsPerRun(20, func() { _ = Count(small) })
	allocsLarge := testing.AllocsPerRun(20, func() { _ = Count(large) })
	// One DP buffer + histogram construction, independent of n. (The exact
	// constant depends on NewHistogram internals; what must not happen is
	// one allocation per tuple.)
	if allocsLarge > allocsSmall+4 {
		t.Errorf("Count allocations scale with window size: %g for n=16, %g for n=128",
			allocsSmall, allocsLarge)
	}
	if allocsLarge > 16 {
		t.Errorf("Count allocates %g times per call", allocsLarge)
	}
}
