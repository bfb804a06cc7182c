package core

import (
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/mathx"
)

// The exact path's kernel (PR 12). The order statistic's CDF at a grid edge
// x_e is a Poisson-binomial tail over the per-contribution successes
// t_i(x_e) = p_i·F_i(x_e). Tabulating it from scratch at every edge costs
// g·n DP steps and g·n CDF calls per window; almost all of that recomputes
// values that cannot have changed:
//
//   - A point-mass attribute (certain value, uncertain membership — the RFID
//     case) has t_i = 0 before the single edge where x_e first reaches its
//     value and t_i = p_i from there on. Its change schedule is one edge.
//   - The DP folds contributions in insertion order, so the state after
//     contributions 0..i−1 depends only on t_0..t_{i−1}. Keeping that state
//     per prefix (rows[i]) lets an edge where the lowest-index change is at
//     contribution i0 resume from rows[i0] instead of from the start.
//   - A step with t = 0 is the identity, bit for bit; it copies the row.
//   - An edge where no t changed has the CDF value of the edge before it and
//     so a bin mass of exactly zero; it is not visited at all when the
//     window holds only atoms.
//
// The fold order and every floating-point expression are those of the
// per-edge tabulation (kept as exactRef in quantile_ref_test.go), so the
// histogram is identical in every bit, and a window of n atoms costs about
// n²/2 DP steps instead of g·n. Continuous attributes move at every edge,
// so they keep the per-edge cost from their lowest-index continuous
// contribution on, minus the interface dispatch for Normals.

// quantileScratch is the finalize's reusable working memory: the lifted
// contribution arrays, the change schedule, the per-prefix DP rows and the
// bin masses, plus the contribution list Finalize lifts partials into and
// the estimator's pooled sketch points. Instances cycle through
// quantileAgg.pool, which in steady state holds one per emission worker.
type quantileScratch struct {
	qcs    []qContrib
	ps     []float64    // inclusion probability
	ts     []float64    // current t_i, clamped to [0, 1]
	atomAt []float64    // an atom's value, by contribution index
	cont   []continuous // the non-atom contributions, ascending by index
	events []uint64     // atom change schedule: edge<<32 | index, sorted
	rows   []float64    // (n+1)·(k+1): rows[i] is the DP state after 0..i−1
	binAt  []int        // the bins a mass was written to, ascending
	masses []float64    // the mass written to binAt[j]
	pts    []weightedPoint
}

// continuous is one lifted non-atom contribution: everything the edge loop
// needs to evaluate t_i = p·F(x), side by side.
type continuous struct {
	i         int       // contribution index
	p         float64   // inclusion probability
	mu, sigma float64   // the Normal's parameters, when d is nil
	d         dist.Dist // any other distribution
}

// fit returns s resliced to n elements, reallocating only to grow.
func fit[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// pbStep folds one Bernoulli(t) trial into the truncated-count state: src[j]
// holds P(count = j) for j < k and src[k] the absorbed P(count ≥ k), k =
// len(src)−1 ≥ 1. dst may alias src.
func pbStep(dst, src []float64, t float64) {
	k := len(src) - 1
	dst[k] = src[k] + t*src[k-1]
	for j := k - 1; j >= 1; j-- {
		dst[j] = src[j]*(1-t) + t*src[j-1]
	}
	dst[0] = src[0] * (1 - t)
}

// exact tabulates the conditional order-statistic distribution
// P(X_(k) ≤ x | N ≥ k) on a grid over the combined effective range.
func (a *quantileAgg) exact(s *quantileScratch, cs []qContrib, w float64, k int) dist.Dist {
	n, g, kk := len(cs), a.opts.GridPoints, k+1

	// Lift the contributions into flat arrays, once per window.
	s.ps, s.ts = fit(s.ps, n), fit(s.ts, n)
	s.atomAt = fit(s.atomAt, n)
	s.cont = s.cont[:0]
	s.events = s.events[:0] // atom indexes only, until lo and hi are known
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, c := range cs {
		s.ps[i] = c.p
		s.ts[i] = 0
		l, h := 0.0, 0.0
		switch n, normal := c.v.D.(dist.Normal); {
		case c.v.D == nil && c.v.Sigma > 0:
			s.cont = append(s.cont, continuous{i: i, p: c.p, mu: c.v.Mu, sigma: c.v.Sigma})
			l, h = dist.EffectiveRange(c.v, 1e-6)
		case c.v.D == nil: // a point mass
			s.atomAt[i] = c.v.Mu
			s.events = append(s.events, uint64(i))
			l, h = c.v.Mu, c.v.Mu
		case normal && n.Sigma <= 0: // boxed, its CDF the step at Mu
			s.atomAt[i] = n.Mu
			s.events = append(s.events, uint64(i))
			l, h = dist.EffectiveRange(n, 1e-6)
		default:
			s.cont = append(s.cont, continuous{i: i, p: c.p, d: c.v.D})
			l, h = dist.EffectiveRange(c.v.D, 1e-6)
		}
		lo = math.Min(lo, l)
		hi = math.Max(hi, h)
	}

	// P(N ≥ k): the population must reach k for the k-th order statistic to
	// exist. Below machine scale the conditional is vacuous — report the
	// sketch quantile as a point answer rather than dividing by ~0.
	s.rows = fit(s.rows, (n+1)*kk)
	row := s.rows[:kk]
	clear(row)
	row[0] = 1
	for _, p := range s.ps {
		pbStep(row, row, mathx.Clamp(p, 0, 1))
	}
	pN := row[k]
	if pN < 1e-12 {
		x, _ := a.sketchQuantile(s, cs, w)
		return dist.PointMass{V: x}
	}
	if !(hi > lo) {
		return dist.PointMass{V: lo}
	}

	// Change schedule of the atoms: the first edge whose x reaches the value,
	// guessed arithmetically and then fixed up against the exact edge
	// expression so it agrees with PointMass.CDF on every edge. x is monotone
	// in e (each operation in it is), so one threshold edge exists; g+1 means
	// the atom never switches on.
	edge := func(e int) float64 { return lo + (hi-lo)*float64(e)/float64(g) }
	for j, ai := range s.events {
		v := s.atomAt[ai]
		e := 1
		if guess := math.Ceil((v - lo) / (hi - lo) * float64(g)); guess > float64(g) {
			e = g + 1
		} else if guess > 1 {
			e = int(guess)
		}
		for e > 1 && !(edge(e-1) < v) {
			e--
		}
		for e <= g && edge(e) < v {
			e++
		}
		s.events[j] = uint64(e)<<32 | ai
	}
	slices.Sort(s.events)

	// Every prefix row starts as the empty fold — all t are 0 below the grid.
	clear(s.rows)
	for i := 0; i <= n; i++ {
		s.rows[i*kk] = 1
	}
	// Masses are written only at edges where the CDF moved, in increasing
	// edge order, and handed over as (bin, mass) pairs: every other bin of
	// the dense vector would be zero.
	s.binAt, s.masses = s.binAt[:0], s.masses[:0]
	last := s.rows[n*kk:]
	prev := 0.0
	ev := 0
	for e := 1; e <= g; e++ {
		if len(s.cont) == 0 {
			// Only atoms: nothing moves between scheduled edges.
			if ev == len(s.events) {
				break
			}
			if e = int(s.events[ev] >> 32); e > g {
				break
			}
		}
		i0 := n // lowest-index contribution whose t changed at this edge
		for ; ev < len(s.events) && int(s.events[ev]>>32) == e; ev++ {
			i := int(uint32(s.events[ev]))
			s.ts[i] = mathx.Clamp(s.ps[i], 0, 1)
			i0 = min(i0, i)
		}
		if len(s.cont) > 0 {
			x := edge(e)
			for j := range s.cont {
				c := &s.cont[j]
				var f float64
				if c.d != nil {
					f = c.d.CDF(x)
				} else {
					f = mathx.NormalCDF((x - c.mu) / c.sigma)
				}
				// != also holds for NaN, which the tabulation never caches.
				if t := mathx.Clamp(c.p*f, 0, 1); t != s.ts[c.i] {
					s.ts[c.i] = t
					i0 = min(i0, c.i)
				}
			}
		}
		if i0 == n {
			continue
		}
		src := s.rows[i0*kk : (i0+1)*kk]
		for i := i0; i < n; i++ {
			dst := s.rows[(i+1)*kk : (i+2)*kk]
			if s.ts[i] == 0 {
				copy(dst, src)
			} else {
				pbStep(dst, src, s.ts[i])
			}
			src = dst
		}
		f := last[k] / pN
		if f > 1 {
			f = 1
		}
		s.binAt = append(s.binAt, e-1)
		s.masses = append(s.masses, math.Max(0, f-prev))
		prev = f
	}
	return dist.NewSparseHistogram(lo, hi, g, s.binAt, s.masses)
}
