package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
)

// Probabilistic top-k dominating over uncertain windows (PR 10). The query's
// TOPK_DOMINATING(k) verb ranks the window's objects by how many other
// window objects they dominate — dominance meaning "greater in every ranked
// dimension" — when every coordinate is a distribution and window membership
// is itself probabilistic. The classic certain-data answer (count the
// dominated points, take the k largest counts) generalizes to expectations:
//
//	pdom(i, j) = P(X_i ≻ X_j) = Π_dims P(X_i,m > X_j,m)         (independent dims)
//	escore(i)  = p_i · Σ_{j≠i} p_j · pdom(i, j)                  (expected dominated count)
//
// P(X_i,m > X_j,m) = E_j[1 − F_i,m(X_j,m)] is estimated through j's
// centered-quantile sketch of dimension m (s equal-mass points, prepared
// once per tuple), so the pairwise work is s CDF evaluations per dimension
// rather than a quadrature. The top k objects by escore are emitted, one row
// per rank, each carrying the full Poisson-binomial distribution of its
// dominated count (trial j succeeds with p_j·pdom(i,j)) as the "domcount"
// result attribute — the answer is a distribution over ranks' strengths, not
// a bare ordering.
//
// Determinism: escore folds j in global insertion order, ranking ties break
// by insertion position (never by tuple ID, which differs between
// single-process and cluster executions), and the DP folds in insertion
// order — so the incremental accumulator, rescan, sharded merge and cluster
// merge emit identical bytes.

// TopKOptions tunes the top-k dominating aggregate. The zero value selects
// the defaults.
type TopKOptions struct {
	// SketchPoints is the per-dimension sketch resolution used for the
	// pairwise dominance probabilities (default 16).
	SketchPoints int
	// Label, when set, names a certain key copied from each winner onto its
	// output row (e.g. "tag" — which object holds this rank). Rows always
	// carry the certain key "rank" (1-based).
	Label string
}

func (o TopKOptions) withDefaults() TopKOptions {
	if o.SketchPoints <= 0 {
		o.SketchPoints = 16
	}
	return o
}

// topkAgg implements UAgg for probabilistic top-k dominating.
type topkAgg struct {
	attrs []string
	k     int
	opts  TopKOptions
}

// NewTopKDominatingAgg builds the windowed top-k dominating aggregate over
// the named uncertain dimensions, for the spine (NewWindowAggOp / the
// TopKDominating query verb).
func NewTopKDominatingAgg(attrs []string, k int, opts TopKOptions) UAgg {
	if len(attrs) == 0 {
		panic("core: top-k dominating needs at least one ranked dimension")
	}
	if k < 1 {
		panic(fmt.Sprintf("core: top-k dominating needs k >= 1, got %d", k))
	}
	return &topkAgg{attrs: append([]string(nil), attrs...), k: k, opts: opts.withDefaults()}
}

func (a *topkAgg) Kind() string { return "topk" }

// Attr is the output attribute: each rank row's dominated-count
// distribution.
func (a *topkAgg) Attr() string { return "domcount" }

// Heavy: O(n²·dims·s) pairwise dominance plus a DP per winner.
func (a *topkAgg) Heavy() bool { return true }

// Prepare implements UAgg: the flattened per-dimension sketches travel as
// Aux (dims × s centered-quantile points, dimension-major).
func (a *topkAgg) Prepare(u *UTuple, p float64) (dist.Dist, []float64) {
	s := a.opts.SketchPoints
	aux := make([]float64, 0, len(a.attrs)*s)
	for _, attr := range a.attrs {
		v := u.Val(attr)
		for j := 0; j < s; j++ {
			aux = append(aux, v.Quantile((float64(j)+0.5)/float64(s)))
		}
	}
	return nil, aux
}

// tContrib is the aggregate's internal contribution form: the inclusion
// probability, the per-dimension distributions (for CDF evaluation as the
// dominator) and the per-dimension sketch (as the dominated side).
type tContrib struct {
	p      float64
	dims   []dist.Val
	sketch []float64 // dimension-major, opts.SketchPoints per dimension
	label  int64
	hasLab bool
}

func (a *topkAgg) contrib(u *UTuple, p float64, sketch []float64) tContrib {
	c := tContrib{p: p, dims: make([]dist.Val, len(a.attrs)), sketch: sketch}
	for m, attr := range a.attrs {
		c.dims[m] = u.Val(attr)
	}
	if a.opts.Label != "" && u.HasKey(a.opts.Label) {
		c.label = u.Key(a.opts.Label)
		c.hasLab = true
	}
	return c
}

// pdom estimates P(X_i ≻ X_j) through j's sketch: per dimension the mean of
// 1 − F_i,m over j's points, multiplied across dimensions.
func (a *topkAgg) pdom(ci, cj *tContrib) float64 {
	s := a.opts.SketchPoints
	prob := 1.0
	for m := range ci.dims {
		var dm float64
		for _, x := range cj.sketch[m*s : (m+1)*s] {
			dm += 1 - ci.dims[m].CDF(x)
		}
		prob *= dm / float64(s)
		if prob <= 0 {
			return 0
		}
	}
	return prob
}

func (a *topkAgg) Finalize(cs []PartialContrib) []AggOut {
	tcs := make([]tContrib, len(cs))
	for i, c := range cs {
		tcs[i] = a.contrib(c.U, c.P, c.Aux)
	}
	return a.rank(tcs, nil)
}

func (a *topkAgg) NewAcc() Acc {
	return &topkAcc{agg: a, pdom: make(map[[2]uint64]float64)}
}

// topkAcc is the incremental accumulator: the insertion-ordered contribution
// log plus a memo of pairwise dominance probabilities keyed by handle pair —
// a surviving pair's pdom never changes, so across slides only pairs
// involving newly admitted tuples are computed fresh.
type topkAcc struct {
	agg     *topkAgg
	log     alog[tContrib]
	pdom    map[[2]uint64]float64
	scratch []tContrib
	handles []uint64
}

func (t *topkAcc) Add(u *UTuple, p float64) uint64 {
	_, sketch := t.agg.Prepare(u, p)
	return t.log.add(t.agg.contrib(u, p, sketch))
}

func (t *topkAcc) Remove(h uint64) {
	if _, ok := t.log.remove(h); !ok {
		return
	}
	// Prune lazily: dead pairs are never read again (lookups key on live
	// handles only), so scan-and-delete only when the memo has outgrown the
	// live pair count — amortized O(1) map work per eviction.
	live := t.log.liveN
	if len(t.pdom) > 2*live*live+64 {
		for k := range t.pdom {
			if !t.alive(k[0]) || !t.alive(k[1]) {
				delete(t.pdom, k)
			}
		}
	}
}

func (t *topkAcc) alive(h uint64) bool {
	if h < t.log.base {
		return false
	}
	i := int(h - t.log.base)
	return i >= t.log.head && i < len(t.log.entries) && !t.log.entries[i].dead
}

func (t *topkAcc) Len() int { return t.log.liveN }

func (t *topkAcc) Result(dst []AggOut) []AggOut {
	t.scratch = t.scratch[:0]
	t.handles = t.handles[:0]
	t.log.each(func(h uint64, c *tContrib) {
		t.scratch = append(t.scratch, *c)
		t.handles = append(t.handles, h)
	})
	memo := func(i, j int) float64 {
		key := [2]uint64{t.handles[i], t.handles[j]}
		if v, ok := t.pdom[key]; ok {
			return v
		}
		v := t.agg.pdom(&t.scratch[i], &t.scratch[j])
		t.pdom[key] = v
		return v
	}
	return append(dst[:0], t.agg.rank(t.scratch, memo)...)
}

// rank is the shared fold: score every contribution, order by (escore desc,
// insertion position asc), emit the top k rows with their dominated-count
// distributions. pd, when non-nil, memoizes pdom lookups (the incremental
// path); nil computes fresh (rescan and merge paths) — same values either
// way, pdom being a pure function of the pair.
func (a *topkAgg) rank(cs []tContrib, pd func(i, j int) float64) []AggOut {
	n := len(cs)
	if n == 0 {
		return nil
	}
	if pd == nil {
		pd = func(i, j int) float64 { return a.pdom(&cs[i], &cs[j]) }
	}
	// Pairwise dominance once per ordered pair; escore folds j in insertion
	// order.
	dom := make([]float64, n*n)
	escore := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := pd(i, j)
			dom[i*n+j] = d
			sum += cs[j].p * d
		}
		escore[i] = cs[i].p * sum
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return escore[idx[x]] > escore[idx[y]] })
	k := a.k
	if k > n {
		k = n
	}
	out := make([]AggOut, k)
	dp := make([]float64, n)
	for r := 0; r < k; r++ {
		i := idx[r]
		var keys KeySet
		keys.Set("rank", int64(r+1))
		if cs[i].hasLab {
			keys.Set(a.opts.Label, cs[i].label)
		}
		out[r] = AggOut{D: a.domCountDist(cs, dom, i, dp), Keys: keys}
	}
	return out
}

// domCountDist builds the Poisson-binomial distribution of contribution i's
// dominated count: trial j (in insertion order) succeeds with
// p_j·pdom(i, j). Shipped as a unit-bin histogram over 0..n−1 so downstream
// Having thresholds ("dominates more than T others with probability ≥ p")
// read it like any result distribution.
func (a *topkAgg) domCountDist(cs []tContrib, dom []float64, i int, dp []float64) dist.Dist {
	n := len(cs)
	if n == 1 {
		return dist.PointMass{V: 0}
	}
	dp = dp[:n]
	for x := range dp {
		dp[x] = 0
	}
	dp[0] = 1
	hi := 0
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		t := cs[j].p * dom[i*n+j]
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		hi++
		for x := hi; x >= 1; x-- {
			dp[x] = dp[x]*(1-t) + t*dp[x-1]
		}
		dp[0] *= 1 - t
	}
	masses := make([]float64, n)
	copy(masses, dp[:n])
	if math.IsNaN(masses[0]) {
		return dist.PointMass{V: 0}
	}
	return dist.NewHistogram(-0.5, float64(n)-0.5, masses)
}
