package pfilter

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// testDetect is a logistic detection model by distance: near-certain read
// inside ~range/2, decaying to zero past range.
func testDetect(rang float64) DetectModel {
	return func(obj, reader Point) float64 {
		d := obj.Dist(reader)
		return 0.95 / (1 + math.Exp((d-rang/2)/(rang/10)))
	}
}

// jitterDyn is near-static dynamics with small diffusion.
type jitterDyn struct{ sigma float64 }

func (j jitterDyn) Step(cur Point, dt float64, g *rng.RNG) Point {
	s := j.sigma * math.Sqrt(dt)
	return Point{cur.X + g.Normal(0, s), cur.Y + g.Normal(0, s)}
}

func uniformPrior(lo, hi float64) func(g *rng.RNG) Point {
	return func(g *rng.RNG) Point {
		return Point{g.Uniform(lo, hi), g.Uniform(lo, hi)}
	}
}

func TestObjectFilterConvergesOnStaticObject(t *testing.T) {
	g := rng.New(1)
	truth := Point{12, 7}
	detect := testDetect(10)
	f := NewObjectFilter(200, uniformPrior(0, 30), g)
	dyn := jitterDyn{sigma: 0.05}
	// Reader sweeps a grid of positions; object is read when close.
	for pass := 0; pass < 3; pass++ {
		for rx := 0.0; rx <= 30; rx += 3 {
			for ry := 0.0; ry <= 30; ry += 3 {
				reader := Point{rx, ry}
				pDet := detect(truth, reader)
				f.Predict(dyn, 0.1, g)
				if g.Bernoulli(pDet) {
					f.Update(func(p Point) float64 { return detect(p, reader) }, g)
				} else {
					f.Update(func(p Point) float64 { return 1 - detect(p, reader) }, g)
				}
			}
		}
	}
	if err := f.Mean().Dist(truth); err > 1.5 {
		t.Errorf("posterior mean %v, truth %v, err %g", f.Mean(), truth, err)
	}
	if f.Cov().SpreadRadius() > 3 {
		t.Errorf("posterior spread %g too wide", f.Cov().SpreadRadius())
	}
}

func TestObjectFilterDegenerateUpdate(t *testing.T) {
	g := rng.New(2)
	f := NewObjectFilter(50, uniformPrior(0, 1), g)
	norm := f.Update(func(Point) float64 { return 0 }, g)
	if norm != 0 {
		t.Errorf("zero-likelihood norm = %g", norm)
	}
	var sum float64
	for _, w := range f.Ws {
		if math.IsNaN(w) {
			t.Fatal("NaN weight after degenerate update")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
}

func TestResamplePreservesMean(t *testing.T) {
	g := rng.New(3)
	f := NewObjectFilter(2000, uniformPrior(0, 10), g)
	// Skew the weights toward larger X.
	var total float64
	for i, p := range f.Pts {
		f.Ws[i] = p.X
		total += f.Ws[i]
	}
	for i := range f.Ws {
		f.Ws[i] /= total
	}
	before := f.Mean()
	f.resample(g)
	after := f.Mean()
	if before.Dist(after) > 0.3 {
		t.Errorf("resampling moved mean %v -> %v", before, after)
	}
	if got := f.ESS(); math.Abs(got-2000) > 1e-6 {
		t.Errorf("ESS after resample = %g", got)
	}
}

func TestCompressionLifecycle(t *testing.T) {
	g := rng.New(4)
	opts := CompressOptions{SpreadThreshold: 1.0, MinParticles: 10}
	f := NewObjectFilter(200, func(g *rng.RNG) Point {
		return Point{5 + g.Normal(0, 0.1), 5 + g.Normal(0, 0.1)}
	}, g)
	if !f.MaybeCompress(opts, g) {
		t.Fatal("tight cloud should compress")
	}
	if f.N() != 10 || !f.Compressed() {
		t.Fatalf("N = %d compressed=%v", f.N(), f.Compressed())
	}
	// Second compression is a no-op.
	if f.MaybeCompress(opts, g) {
		t.Error("double compression")
	}
	// Mean preserved through compression.
	if f.Mean().Dist(Point{5, 5}) > 0.5 {
		t.Errorf("compressed mean %v", f.Mean())
	}
	// Force-expand restores the configured count.
	f.ForceExpand(opts, g)
	if f.N() != 200 || f.Compressed() {
		t.Fatalf("expand: N = %d compressed=%v", f.N(), f.Compressed())
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	g := rng.New(5)
	grid := NewGrid(5)
	type obj struct {
		id int64
		p  Point
	}
	objs := make([]obj, 300)
	for i := range objs {
		objs[i] = obj{int64(i), Point{g.Uniform(0, 100), g.Uniform(0, 100)}}
		grid.Update(objs[i].id, objs[i].p)
	}
	f := func(cx, cy, r float64) bool {
		cx = math.Mod(math.Abs(cx), 100)
		cy = math.Mod(math.Abs(cy), 100)
		r = math.Mod(math.Abs(r), 20) + 0.1
		center := Point{cx, cy}
		got := grid.Query(center, r, nil)
		want := map[int64]bool{}
		for _, o := range objs {
			if o.p.Dist(center) <= r {
				want[o.id] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGridUpdateMovesAcrossCells(t *testing.T) {
	grid := NewGrid(1)
	grid.Update(1, Point{0.5, 0.5})
	grid.Update(1, Point{10.5, 10.5})
	if ids := grid.Query(Point{0.5, 0.5}, 1, nil); len(ids) != 0 {
		t.Errorf("stale position still indexed: %v", ids)
	}
	if ids := grid.Query(Point{10.5, 10.5}, 1, nil); len(ids) != 1 {
		t.Errorf("new position missing: %v", ids)
	}
	grid.Remove(1)
	if grid.Len() != 0 {
		t.Error("Remove failed")
	}
}

func TestFactorizedTracksObjects(t *testing.T) {
	g := rng.New(6)
	detect := testDetect(10)
	cfg := Config{Particles: 150, ReaderRange: 10, UseIndex: true, NegativeEvidence: true}
	f := NewFactorized(cfg, detect, jitterDyn{sigma: 0.05}, g)
	truths := map[int64]Point{
		1: {10, 10},
		2: {40, 10},
		3: {25, 35},
	}
	for id := range truths {
		f.Track(id, uniformPrior(0, 50))
	}
	// Reader sweeps serpentine passes over the floor. Iterate objects in
	// fixed ID order so RNG consumption (and thus the trace) is
	// deterministic across runs.
	ids := []int64{1, 2, 3}
	for pass := 0; pass < 4; pass++ {
		for rx := 0.0; rx <= 50; rx += 2.5 {
			for ry := 0.0; ry <= 50; ry += 2.5 {
				reader := Point{rx, ry}
				var observed []int64
				for _, id := range ids {
					if g.Bernoulli(detect(truths[id], reader)) {
						observed = append(observed, id)
					}
				}
				f.Process(ScanEvent{Reader: reader, Observed: observed, DT: 0.05})
			}
		}
	}
	for id, tp := range truths {
		est, ok := f.Estimate(id)
		if !ok {
			t.Fatalf("object %d not tracked", id)
		}
		if err := est.Dist(tp); err > 3.0 {
			t.Errorf("object %d: estimate %v truth %v err %g", id, est, tp, err)
		}
	}
}

func TestFactorizedIndexLimitsWork(t *testing.T) {
	g := rng.New(7)
	detect := testDetect(10)
	dyn := jitterDyn{sigma: 0.01}
	mk := func(useIndex bool) *Factorized {
		cfg := Config{Particles: 30, ReaderRange: 10, UseIndex: useIndex, NegativeEvidence: true}
		f := NewFactorized(cfg, detect, dyn, rng.New(8))
		// 400 objects spread over a 200x200 floor.
		for i := int64(0); i < 400; i++ {
			x := float64(i%20) * 10
			y := float64(i/20) * 10
			f.Track(i, func(g *rng.RNG) Point {
				return Point{x + g.Normal(0, 1), y + g.Normal(0, 1)}
			})
		}
		return f
	}
	withIdx := mk(true)
	withoutIdx := mk(false)
	ev := ScanEvent{Reader: Point{100, 100}, DT: 0.1}
	tIdx := withIdx.Process(ev)
	tNo := withoutIdx.Process(ev)
	if tNo != 400 {
		t.Errorf("unindexed filter touched %d, want 400", tNo)
	}
	if tIdx >= tNo/4 {
		t.Errorf("indexed filter touched %d of %d — index ineffective", tIdx, tNo)
	}
	_ = g
}

func TestFactorizedVsJointAccuracy(t *testing.T) {
	detect := testDetect(10)
	dyn := jitterDyn{sigma: 0.02}
	truths := map[int64]Point{1: {5, 5}, 2: {20, 20}}

	runScan := func(process func(ScanEvent), g *rng.RNG) {
		ids := []int64{1, 2}
		for pass := 0; pass < 3; pass++ {
			for rx := 0.0; rx <= 25; rx += 2.5 {
				for ry := 0.0; ry <= 25; ry += 5 {
					reader := Point{rx, ry}
					var observed []int64
					for _, id := range ids {
						if g.Bernoulli(detect(truths[id], reader)) {
							observed = append(observed, id)
						}
					}
					process(ScanEvent{Reader: reader, Observed: observed, DT: 0.05})
				}
			}
		}
	}

	gf := rng.New(9)
	fact := NewFactorized(Config{Particles: 200, ReaderRange: 10, NegativeEvidence: true}, detect, dyn, gf)
	for id := range truths {
		fact.Track(id, uniformPrior(0, 25))
	}
	runScan(func(ev ScanEvent) { fact.Process(ev) }, gf)

	gj := rng.New(10)
	joint := NewJoint(400, detect, dyn, gj)
	for id := range truths {
		joint.Track(id, uniformPrior(0, 25))
	}
	runScan(joint.Process, gj)

	for id, tp := range truths {
		fe, _ := fact.Estimate(id)
		je, ok := joint.Estimate(id)
		if !ok {
			t.Fatalf("joint lost object %d", id)
		}
		if fe.Dist(tp) > 3.5 {
			t.Errorf("factorized err for %d = %g", id, fe.Dist(tp))
		}
		if je.Dist(tp) > 5 {
			t.Errorf("joint err for %d = %g", id, je.Dist(tp))
		}
	}
}

func TestControllerDoublingThenRefinement(t *testing.T) {
	// Synthetic accuracy curve: err(n) = 10/sqrt(n); target 1.0 needs n≈100.
	errAt := func(n int) float64 { return 10 / math.Sqrt(float64(n)) }
	c := NewController(1.0, 8, 1024)
	var ns []int
	for i := 0; i < 50 && !c.Settled(); i++ {
		n := c.Particles()
		ns = append(ns, n)
		c.Observe(errAt(n))
	}
	if !c.Settled() {
		t.Fatalf("controller never settled: %v", ns)
	}
	final := c.Particles()
	if errAt(final) > 1.0 {
		t.Errorf("settled count %d misses the accuracy target", final)
	}
	// Smallest passing count is 100; the constant-step refinement should
	// land within one step above it.
	if final < 100 || final > 100+c.Step {
		t.Errorf("settled at %d, want within [100, %d]; path %v", final, 100+c.Step, ns)
	}
	// Path must contain a doubling prefix.
	if ns[0] != 8 || ns[1] != 16 || ns[2] != 32 {
		t.Errorf("doubling phase wrong: %v", ns)
	}
}

func TestControllerPinsAtMaxWhenUnreachable(t *testing.T) {
	c := NewController(0.001, 8, 64)
	for i := 0; i < 20 && !c.Settled(); i++ {
		c.Observe(1.0) // never meets target
	}
	if !c.Settled() || c.Particles() != 64 {
		t.Errorf("expected pin at max: settled=%v n=%d", c.Settled(), c.Particles())
	}
}

func TestControllerReentersOnRegression(t *testing.T) {
	c := NewController(1.0, 8, 256)
	for i := 0; i < 30 && !c.Settled(); i++ {
		c.Observe(10 / math.Sqrt(float64(c.Particles())))
	}
	if !c.Settled() {
		t.Fatal("did not settle")
	}
	c.Observe(5.0) // bad regression
	if c.Settled() {
		t.Error("controller should re-enter control on regression")
	}
}

func TestErrorEstimator(t *testing.T) {
	e := NewErrorEstimator(0.5)
	e.Observe(Point{1, 0}, Point{0, 0}) // err 1
	if e.Error() != 1 {
		t.Errorf("first error = %g", e.Error())
	}
	e.Observe(Point{3, 0}, Point{0, 0}) // err 3 -> 0.5*1+0.5*3 = 2
	if math.Abs(e.Error()-2) > 1e-12 {
		t.Errorf("smoothed error = %g", e.Error())
	}
	if e.Count() != 2 {
		t.Errorf("count = %d", e.Count())
	}
}

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	if q := p.Add(Point{1, 1}).Sub(Point{1, 1}); q != p {
		t.Error("Add/Sub")
	}
	if (Cov2{XX: 4, YY: 0}).SpreadRadius() != 2 {
		t.Error("SpreadRadius")
	}
}
