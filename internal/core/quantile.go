package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/dist"
)

// Streaming quantiles over uncertain windows (PR 10). The query's QUANTILE(q)
// verb must answer "what is the q-quantile of the window's readings?" when
// every reading is a distribution and even window membership is
// probabilistic (existence × group membership). The aggregate follows the
// paper's result-distribution discipline: the answer is itself a
// distribution over the quantile's value, not a point estimate.
//
// Semantics. Let the live contributions be (X_i, p_i): X_i the attribute
// distribution, p_i the inclusion probability. The window's q-quantile is
// the k-th smallest included value, k = ⌈q·W⌉ with W = Σ p_i the expected
// population. Two regimes:
//
//   - Exact (small windows, n ≤ MaxExact): the order statistic's CDF is
//     P(X_(k) ≤ x | N ≥ k) = P(#{i : included_i ∧ X_i ≤ x} ≥ k) / P(N ≥ k),
//     where the count is Poisson-binomial with per-tuple success
//     t_i(x) = p_i·F_i(x). A truncated tail DP tabulates it on a fixed grid
//     (quantile_kernel.go) and the result ships as a Histogram — exact up
//     to grid resolution.
//   - Estimator (large windows): each contribution is compressed at Prepare
//     time into s centered-quantile sketch points of mass p_i/s; the weighted
//     lower quantile x̂ of the pooled points estimates the value, and the
//     classical asymptotic x̂ ± √(q(1−q)/W)/f(x̂) supplies the uncertainty
//     band (f estimated as the inclusion-weighted density mixture at x̂).
//     The result ships as a Normal.
//
// Both regimes are deterministic functions of the live contributions in
// insertion order, so the incremental accumulator, the rescan path, the
// sharded merge and the cluster merge all emit identical bytes — the same
// contract the gated sum rides.

// QuantileOptions tunes the quantile aggregate. The zero value selects the
// defaults.
type QuantileOptions struct {
	// SketchPoints is the number of centered-quantile points each
	// contribution compresses to on the estimator path (default 8).
	SketchPoints int
	// MaxExact is the largest live-contribution count handled by the exact
	// order-statistic DP; larger windows switch to the sketch estimator
	// (default 48).
	MaxExact int
	// GridPoints is the exact path's tabulation grid resolution
	// (default 256).
	GridPoints int
}

func (o QuantileOptions) withDefaults() QuantileOptions {
	if o.SketchPoints <= 0 {
		o.SketchPoints = 8
	}
	if o.MaxExact <= 0 {
		o.MaxExact = 48
	}
	if o.GridPoints <= 0 {
		o.GridPoints = 256
	}
	return o
}

// quantileAgg implements UAgg for streaming uncertain quantiles.
type quantileAgg struct {
	attr string
	q    float64
	opts QuantileOptions
	// pool recycles the finalize's working memory across windows, groups and
	// the emission workers that run finalizes concurrently; sketches hands
	// out the storage sketch points are carved from.
	pool     sync.Pool
	sketches sync.Pool
}

// NewQuantileAgg builds the windowed q-quantile aggregate over the named
// uncertain attribute, for the spine (NewWindowAggOp / the Quantile query
// verb).
func NewQuantileAgg(attr string, q float64, opts QuantileOptions) UAgg {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("core: quantile level %g outside [0, 1]", q))
	}
	a := &quantileAgg{attr: attr, q: q, opts: opts.withDefaults()}
	a.pool.New = func() any { return new(quantileScratch) }
	a.sketches.New = func() any { return new([]float64) }
	return a
}

// release returns a finalize's scratch to the pool, dropping what would
// otherwise pin the window's distributions and sketch points.
func (a *quantileAgg) release(s *quantileScratch) {
	clear(s.qcs)
	clear(s.cont)
	a.pool.Put(s)
}

func (a *quantileAgg) Kind() string { return "quantile" }
func (a *quantileAgg) Attr() string { return a.attr }

// Heavy: the exact path tabulates a Poisson-binomial DP over a grid — for
// continuous attributes at every edge — worth a worker per group.
func (a *quantileAgg) Heavy() bool { return true }

// sketch compresses one attribute distribution to its centered-quantile
// points: v.Quantile((j+½)/s) for j = 0..s-1. Equal-mass representative
// points, exact for point masses, monotone by construction. The points are
// carved from a chunk shared with the sketches made around the same time —
// contributions that arrive together leave the window together, so a chunk
// outlives its sketches only briefly — instead of one allocation each.
func (a *quantileAgg) sketch(v dist.Val) []float64 {
	s := a.opts.SketchPoints
	c := a.sketches.Get().(*[]float64)
	if len(*c)+s > cap(*c) {
		*c = make([]float64, 0, sketchChunk*s)
	}
	n := len(*c)
	*c = (*c)[:n+s]
	pts := (*c)[n : n+s : n+s]
	for j := 0; j < s; j++ {
		pts[j] = v.Quantile((float64(j) + 0.5) / float64(s))
	}
	a.sketches.Put(c)
	return pts
}

// sketchChunk is how many sketches one chunk holds.
const sketchChunk = 64

// Prepare implements UAgg. The attribute rides inside the carrier tuple, and
// its sketch points are made only where a fold reads them (sketchAll), so
// nothing is prepared: the exact path, which serves every window of up to
// MaxExact contributions, never reads a sketch.
func (a *quantileAgg) Prepare(u *UTuple, p float64) (dist.Dist, []float64) {
	return nil, nil
}

// qContrib is the aggregate's internal contribution form, shared by the
// accumulator and the Finalize fold so the two can never diverge. pts is nil
// until a fold sketches the contribution; a checkpoint written before
// sketches were made lazily restores with them set, to the same points.
type qContrib struct {
	v   dist.Val
	p   float64
	pts []float64
}

// sketchAll sketches the contributions that have no points yet. Callers
// keep the points on the contribution for its lifetime, so each is sketched
// at most once.
func (a *quantileAgg) sketchAll(cs []qContrib) {
	for i := range cs {
		if cs[i].pts == nil {
			cs[i].pts = a.sketch(cs[i].v)
		}
	}
}

func (a *quantileAgg) Finalize(cs []PartialContrib) []AggOut {
	return a.appendFinal(nil, cs)
}

// appendFinal folds cs and keeps any sketch the fold made in its
// contribution's Aux: the shard merge's live groups hold cs across slides.
// Aux carries nothing else for this aggregate.
func (a *quantileAgg) appendFinal(dst []AggOut, cs []PartialContrib) []AggOut {
	s := a.pool.Get().(*quantileScratch)
	defer a.release(s)
	s.qcs = fit(s.qcs, len(cs))
	for i, c := range cs {
		s.qcs[i] = qContrib{v: c.U.Val(a.attr), p: c.P, pts: c.Aux}
	}
	dst = append(dst, AggOut{D: a.fold(s, s.qcs)})
	for i := range cs {
		cs[i].Aux = s.qcs[i].pts
	}
	return dst
}

func (a *quantileAgg) NewAcc() Acc {
	return &quantileAcc{agg: a}
}

// quantileAcc is the incremental accumulator: an insertion-ordered log of
// contributions. Result collects the live entries — the same list the
// rescan path builds — and runs the shared fold.
type quantileAcc struct {
	agg     *quantileAgg
	log     alog[qContrib]
	scratch []qContrib
}

func (a *quantileAcc) Add(u *UTuple, p float64) uint64 {
	return a.log.add(qContrib{v: u.Val(a.agg.attr), p: p})
}

func (a *quantileAcc) Remove(h uint64) { a.log.remove(h) }
func (a *quantileAcc) Len() int        { return a.log.liveN }

func (a *quantileAcc) Result(dst []AggOut) []AggOut {
	a.scratch = a.log.appendLive(a.scratch[:0])
	dst = append(dst[:0], AggOut{D: a.agg.result(a.scratch)})
	// Keep any sketch the fold made on the live entries, which the scratch
	// list copied in order.
	j := 0
	for i := a.log.head; i < len(a.log.entries); i++ {
		if e := &a.log.entries[i]; !e.dead {
			e.v.pts = a.scratch[j].pts
			j++
		}
	}
	return dst
}

// result is the one fold both execution paths share: contributions in
// global insertion order in, the quantile's result distribution out. It
// sketches the contributions it reads sketches of in place.
func (a *quantileAgg) result(cs []qContrib) dist.Dist {
	s := a.pool.Get().(*quantileScratch)
	defer a.release(s)
	return a.fold(s, cs)
}

// rank returns the expected population W = Σ p_i and the order-statistic
// rank k = ⌈q·W⌉ clamped to [1, n]; ok is false when nothing can be ranked.
func (a *quantileAgg) rank(cs []qContrib) (w float64, k int, ok bool) {
	for _, c := range cs {
		w += c.p
	}
	if len(cs) == 0 || w <= 0 {
		return 0, 0, false
	}
	k = int(math.Ceil(a.q*w - 1e-9))
	return w, min(max(k, 1), len(cs)), true
}

// fold is result on caller-held scratch. s is working memory only; nothing
// in the returned distribution aliases it.
func (a *quantileAgg) fold(s *quantileScratch, cs []qContrib) dist.Dist {
	w, k, ok := a.rank(cs)
	if !ok {
		return dist.PointMass{V: 0}
	}
	if len(cs) <= a.opts.MaxExact {
		return a.exact(s, cs, w, k)
	}
	return a.estimate(s, cs, w)
}

// estimate is the large-window path: weighted lower quantile of the pooled
// sketch points, wrapped in the asymptotic normal band.
func (a *quantileAgg) estimate(s *quantileScratch, cs []qContrib, w float64) dist.Dist {
	x, ok := a.sketchQuantile(s, cs, w)
	if !ok {
		return dist.PointMass{V: 0}
	}
	// Density of the inclusion-weighted mixture at x̂.
	var f float64
	for _, c := range cs {
		f += c.p * c.v.PDF(x)
	}
	f /= w
	sd := 0.0
	if v := a.q * (1 - a.q); v > 0 {
		if f > 1e-12 {
			sd = math.Sqrt(v/w) / f
		} else {
			// Flat density at x̂ (a gap between point masses): fall back to
			// the data scale shrunk by the population.
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, c := range cs {
				lo = math.Min(lo, c.pts[0])
				hi = math.Max(hi, c.pts[len(c.pts)-1])
			}
			sd = (hi - lo) / math.Sqrt(w)
		}
	}
	if !(sd > 0) || math.IsInf(sd, 0) || math.IsNaN(sd) {
		return dist.PointMass{V: x}
	}
	return dist.NewNormal(x, sd)
}

// weightedPoint is one pooled sketch point: a value and its share of the
// contribution's inclusion probability.
type weightedPoint struct {
	x, w float64
}

// sketchQuantile returns the weighted lower q-quantile of the pooled sketch
// points: the smallest point whose cumulative weight reaches q·W. Ties and
// equal values resolve by insertion order (stable sort), so the answer is a
// deterministic function of the ordered contribution list. It sketches the
// contributions that have no points yet, in place.
func (a *quantileAgg) sketchQuantile(s *quantileScratch, cs []qContrib, w float64) (float64, bool) {
	a.sketchAll(cs)
	pts := s.pts[:0]
	for _, c := range cs {
		pw := c.p / float64(len(c.pts))
		for _, x := range c.pts {
			pts = append(pts, weightedPoint{x: x, w: pw})
		}
	}
	s.pts = pts
	if len(pts) == 0 {
		return 0, false
	}
	byX := func(a, b weightedPoint) int { return cmp.Compare(a.x, b.x) }
	if !slices.IsSortedFunc(pts, byX) {
		slices.SortStableFunc(pts, byX)
	}
	target := a.q * w
	cum := 0.0
	for _, p := range pts {
		cum += p.w
		if cum >= target-1e-12 {
			return p.x, true
		}
	}
	return pts[len(pts)-1].x, true
}
