package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// This file holds the oracles for the exact path's kernel
// (quantile_kernel.go): exactRef, the per-edge-from-scratch tabulation the
// kernel replaced, which it must match in every bit; and a brute-force
// possible-worlds enumerator, independent of any DP, which both must match
// to rounding.

// exactRef tabulates the conditional order-statistic distribution
// P(X_(k) ≤ x | N ≥ k) by running the whole Poisson-binomial DP and every
// contribution's CDF at each grid edge — the production code up to PR 11.
func (a *quantileAgg) exactRef(cs []qContrib, w float64, k int) dist.Dist {
	ps := make([]float64, len(cs))
	for i, c := range cs {
		ps[i] = c.p
	}
	dp := make([]float64, k+1)
	pN := pbTail(dp, ps, k)
	if pN < 1e-12 {
		x, _ := a.sketchQuantile(new(quantileScratch), cs, w)
		return dist.PointMass{V: x}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cs {
		l, h := dist.EffectiveRange(c.v, 1e-6)
		lo = math.Min(lo, l)
		hi = math.Max(hi, h)
	}
	if !(hi > lo) {
		return dist.PointMass{V: lo}
	}
	g := a.opts.GridPoints
	ts := make([]float64, len(cs))
	masses := make([]float64, g)
	prev := 0.0
	for e := 1; e <= g; e++ {
		x := lo + (hi-lo)*float64(e)/float64(g)
		for i, c := range cs {
			ts[i] = c.p * c.v.CDF(x)
		}
		f := pbTail(dp, ts, k) / pN
		if f > 1 {
			f = 1
		}
		masses[e-1] = math.Max(0, f-prev)
		prev = f
	}
	return dist.NewHistogram(lo, hi, masses)
}

// pbTail returns P(Σ Bernoulli(t_i) ≥ k) for independent trials, k ≥ 1, via
// the truncated-count DP: dp[j] holds P(count = j) for j < k and dp[k] the
// absorbed P(count ≥ k). dp is caller-provided scratch of length k+1.
func pbTail(dp []float64, ts []float64, k int) float64 {
	dp = dp[:k+1]
	for i := range dp {
		dp[i] = 0
	}
	dp[0] = 1
	for _, t := range ts {
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		dp[k] += t * dp[k-1]
		for j := k - 1; j >= 1; j-- {
			dp[j] = dp[j]*(1-t) + t*dp[j-1]
		}
		dp[0] *= 1 - t
	}
	return dp[k]
}

// sameBits reports the first difference between the kernel's and the
// oracle's answer, comparing float bits, or "" when they are identical.
func sameBits(got, want dist.Dist) string {
	switch w := want.(type) {
	case dist.PointMass:
		g, ok := got.(dist.PointMass)
		if !ok || math.Float64bits(g.V) != math.Float64bits(w.V) {
			return fmt.Sprintf("got %v, want %v", got, want)
		}
	case *dist.Histogram:
		g, ok := got.(*dist.Histogram)
		if !ok {
			return fmt.Sprintf("got %v, want %v", got, want)
		}
		if math.Float64bits(g.Lo) != math.Float64bits(w.Lo) || math.Float64bits(g.Hi) != math.Float64bits(w.Hi) || g.NBins() != w.NBins() {
			return fmt.Sprintf("range [%.17g, %.17g]×%d, want [%.17g, %.17g]×%d", g.Lo, g.Hi, g.NBins(), w.Lo, w.Hi, w.NBins())
		}
		gp, wp := g.Masses(), w.Masses()
		for i := range wp {
			if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
				return fmt.Sprintf("bin %d mass = %.17g, want %.17g", i, gp[i], wp[i])
			}
		}
	default:
		return fmt.Sprintf("oracle returned unexpected %T", want)
	}
	return ""
}

// checkKernel runs the production fold and the oracle on one window and
// fails on any differing bit.
func checkKernel(t *testing.T, a *quantileAgg, cs []qContrib) {
	t.Helper()
	w, k, ok := a.rank(cs)
	if !ok || len(cs) > a.opts.MaxExact {
		t.Fatalf("window of %d contributions (W=%g) is not on the exact path", len(cs), w)
	}
	if diff := sameBits(a.result(cs), a.exactRef(cs, w, k)); diff != "" {
		t.Errorf("q=%g n=%d k=%d: kernel differs from exactRef: %s\nwindow: %s", a.q, len(cs), k, diff, describe(cs))
	}
}

func describe(cs []qContrib) string {
	s := ""
	for _, c := range cs {
		s += fmt.Sprintf("(%v, %.17g) ", c.v.Dist(), c.p)
	}
	return s
}

var kernelLevels = []float64{1e-9, 0.1, 0.5, 0.9, 1}

func kernelAgg(q float64, opts QuantileOptions) *quantileAgg {
	return NewQuantileAgg("v", q, opts).(*quantileAgg)
}

func contribs(a *quantileAgg, ds []dist.Dist, ps []float64) []qContrib {
	cs := make([]qContrib, len(ds))
	for i, d := range ds {
		cs[i] = qContrib{v: dist.ValOf(d), p: ps[i]}
	}
	return cs
}

// randomDist draws one attribute distribution of the given family; values
// land on a coarse lattice often enough that duplicates and shared supports
// are common.
func randomDist(g *rng.RNG, family int) dist.Dist {
	v := math.Round(g.Float64()*40) / 2
	if g.Float64() < 0.3 {
		v = g.Float64() * 20
	}
	switch family {
	case 0:
		return dist.PointMass{V: v}
	case 1:
		return dist.NewNormal(v, 0.05+3*g.Float64())
	case 2:
		return dist.NewUniform(v, v+0.1+5*g.Float64())
	case 3:
		masses := make([]float64, 2+int(g.Float64()*6))
		for i := range masses {
			masses[i] = g.Float64()
		}
		return dist.NewHistogram(v, v+0.5+4*g.Float64(), masses)
	default:
		return dist.NewMixture([]float64{0.3 + 0.4*g.Float64(), 0.3},
			[]dist.Dist{dist.NewNormal(v, 0.2+g.Float64()), dist.PointMass{V: v + 1}})
	}
}

func randomP(g *rng.RNG) float64 {
	switch u := g.Float64(); {
	case u < 0.15:
		return 1
	case u < 0.25:
		return 1e-9
	default:
		return g.Float64()*0.999 + 0.001
	}
}

// TestQuantileKernelMatchesRef is the property test: on random windows of
// every attribute family — all atoms, all Normals, all Uniforms, all
// Histograms, and mixed including Mixtures — at every size up to MaxExact
// and every level, the kernel's histogram equals the oracle's in every bit.
func TestQuantileKernelMatchesRef(t *testing.T) {
	g := rng.New(12)
	families := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {0, 1, 2, 3, 4}}
	for _, q := range kernelLevels {
		a := kernelAgg(q, QuantileOptions{})
		for _, fam := range families {
			for n := 1; n <= a.opts.MaxExact; n++ {
				reps := 3
				if n > 16 {
					reps = 1
				}
				for r := 0; r < reps; r++ {
					ds, ps := make([]dist.Dist, n), make([]float64, n)
					for i := range ds {
						ds[i] = randomDist(g, fam[int(g.Float64()*float64(len(fam)))])
						ps[i] = randomP(g)
					}
					checkKernel(t, a, contribs(a, ds, ps))
				}
			}
		}
	}
}

// TestQuantileKernelEdgeCases pins the inputs where an event-driven walk
// could part from the per-edge one: duplicate atoms, atoms exactly on a grid
// edge (and one ulp to either side), the range endpoints, certain and
// near-impossible membership, a single distinct value, a degenerate Normal,
// and the vacuous-conditional fallback.
func TestQuantileKernelEdgeCases(t *testing.T) {
	atoms := func(vs ...float64) []dist.Dist {
		ds := make([]dist.Dist, len(vs))
		for i, v := range vs {
			ds[i] = dist.PointMass{V: v}
		}
		return ds
	}
	fill := func(n int, p float64) []float64 {
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = p
		}
		return ps
	}
	// With lo = 0, hi = 256 and the default 256-point grid the edges are the
	// integers, so these atoms sit exactly on, just below and just above one.
	onEdge := atoms(0, 256, 17, math.Nextafter(17, 0), math.Nextafter(17, 256), 128, 128, 255, math.Nextafter(256, 0))
	// An awkward range, where lo+(hi−lo)·e/g does not round-trip.
	awkward := atoms(0.1, 0.7, 0.1+(0.7-0.1)*77/256, 0.3, 0.3, 0.30000000000000004, 0.7)
	cases := []struct {
		name  string
		ds    []dist.Dist
		ps    []float64
		point bool // the answer is a PointMass, not a tabulated Histogram
	}{
		{"duplicates", atoms(5, 5, 5, 9, 9, 1, 1, 1, 1), fill(9, 0.4), false},
		{"on-edge", onEdge, fill(len(onEdge), 0.5), false},
		{"on-edge-certain", onEdge, fill(len(onEdge), 1), false},
		{"awkward-range", awkward, fill(len(awkward), 0.6), false},
		{"p-one", atoms(3, 1, 4, 1, 5, 9, 2, 6), fill(8, 1), false},
		{"p-tiny-and-one", atoms(3, 1, 4, 1, 5), []float64{1e-9, 1, 1e-9, 1, 1}, false},
		{"all-equal", atoms(7, 7, 7, 7), fill(4, 0.5), true},
		{"single", atoms(2), fill(1, 0.3), true},
		// P(N ≥ 1) = 8e-14: the pN < 1e-12 fallback.
		{"vacuous", atoms(1, 2, 3, 4, 5, 6, 7, 8), fill(8, 1e-14), true},
		{"degenerate-normal", []dist.Dist{dist.Normal{Mu: 4}, dist.PointMass{V: 2}, dist.NewNormal(3, 1), dist.Normal{Mu: 4}}, fill(4, 0.7), false},
		{"far-apart-normals", []dist.Dist{dist.NewNormal(0, 0.01), dist.NewNormal(1000, 5), dist.PointMass{V: 500}}, fill(3, 0.9), false},
	}
	for _, tc := range cases {
		for _, q := range kernelLevels {
			a := kernelAgg(q, QuantileOptions{})
			cs := contribs(a, tc.ds, tc.ps)
			checkKernel(t, a, cs)
			if _, point := a.result(cs).(dist.PointMass); point != tc.point {
				t.Errorf("%s q=%g: answered %v, so the case does not exercise what it was built for", tc.name, q, a.result(cs))
			}
		}
	}
}

// FuzzQuantileExact decodes a window from bytes — per contribution a family,
// a value, a spread and a membership probability, all on coarse lattices so
// the fuzzer finds duplicates and on-edge atoms quickly — and requires the
// kernel to equal the oracle in every bit.
func FuzzQuantileExact(f *testing.F) {
	f.Add(uint8(2), []byte{0, 10, 0, 255, 0, 10, 0, 128, 0, 200, 3, 7})
	f.Add(uint8(0), []byte{1, 10, 40, 200, 1, 90, 3, 100, 0, 50, 0, 255})
	f.Add(uint8(4), []byte{0, 0, 0, 255, 0, 255, 0, 255, 2, 17, 9, 1, 3, 60, 60, 254, 4, 5, 5, 5})
	f.Add(uint8(1), []byte{0, 7, 0, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, level uint8, data []byte) {
		a := kernelAgg(kernelLevels[int(level)%len(kernelLevels)], QuantileOptions{})
		var ds []dist.Dist
		var ps []float64
		for ; len(data) >= 4 && len(ds) < a.opts.MaxExact; data = data[4:] {
			v, spread := float64(data[1]), 0.05+float64(data[2])/16
			var d dist.Dist
			switch data[0] % 5 {
			case 0:
				d = dist.PointMass{V: v}
			case 1:
				d = dist.NewNormal(v, spread)
			case 2:
				d = dist.NewUniform(v, v+spread)
			case 3:
				d = dist.NewHistogram(v, v+spread, []float64{1, float64(data[2]), 2})
			default:
				d = dist.NewMixture([]float64{0.5, 0.5}, []dist.Dist{dist.NewNormal(v, spread), dist.PointMass{V: v + 1}})
			}
			p := float64(data[3]) / 255
			switch data[3] {
			case 0:
				p = 1e-9
			case 1:
				p = float64(binary.LittleEndian.Uint16(data[1:3])+1) / 65537
			}
			ds, ps = append(ds, d), append(ps, p)
		}
		if len(ds) == 0 {
			return
		}
		checkKernel(t, a, contribs(a, ds, ps))
	})
}

// worldsCDF enumerates all 2ⁿ inclusion worlds of a window of atoms and
// returns P(X_(k) ≤ x | N ≥ k) by direct counting — no DP, no recurrence.
func worldsCDF(vals, ps []float64, k int, x float64) float64 {
	var num, den float64
	for world := 0; world < 1<<len(vals); world++ {
		pw, size, below := 1.0, 0, 0
		for i := range vals {
			if world>>i&1 == 1 {
				pw *= ps[i]
				size++
				if vals[i] <= x {
					below++
				}
			} else {
				pw *= 1 - ps[i]
			}
		}
		if size >= k {
			den += pw
			if below >= k { // the k-th smallest included value is ≤ x
				num += pw
			}
		}
	}
	return num / den
}

// TestQuantileExactMatchesPossibleWorlds checks the answer, not just the
// agreement of two DPs: on windows of up to 12 atoms the histogram's CDF at
// every grid edge equals the possible-worlds probability to 1e-12.
func TestQuantileExactMatchesPossibleWorlds(t *testing.T) {
	g := rng.New(7)
	for _, n := range []int{1, 2, 3, 5, 8, 12} {
		for _, q := range kernelLevels {
			a := kernelAgg(q, QuantileOptions{})
			vals, ps := make([]float64, n), make([]float64, n)
			ds := make([]dist.Dist, n)
			for i := range vals {
				vals[i] = math.Round(g.Float64()*30) / 2
				ps[i] = 0.05 + 0.95*g.Float64()
				ds[i] = dist.PointMass{V: vals[i]}
			}
			cs := contribs(a, ds, ps)
			_, k, _ := a.rank(cs)
			h, ok := a.result(cs).(*dist.Histogram)
			if !ok {
				continue // a single distinct value: nothing to tabulate
			}
			gp := a.opts.GridPoints
			for e := 1; e <= gp; e++ {
				x := h.Lo + (h.Hi-h.Lo)*float64(e)/float64(gp)
				want := worldsCDF(vals, ps, k, x)
				var got float64
				for _, p := range h.Masses()[:e] {
					got += p
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("n=%d q=%g k=%d: CDF at edge %d (x=%g) = %.15g, possible worlds say %.15g", n, q, k, e, x, got, want)
				}
			}
		}
	}
}

// benchWindow builds a deterministic window of n contributions: atoms with
// uncertain membership (the RFID weight case), Normals, or alternating.
func benchWindow(a *quantileAgg, family string, n int) []qContrib {
	g := rng.New(int64(n))
	ds, ps := make([]dist.Dist, n), make([]float64, n)
	for i := range ds {
		v := 5 + 40*g.Float64()
		if family == "atoms" || family == "mixed" && i%2 == 0 {
			ds[i] = dist.PointMass{V: v}
		} else {
			ds[i] = dist.NewNormal(v, 0.5+2*g.Float64())
		}
		ps[i] = 0.05 + 0.9*g.Float64()
	}
	return contribs(a, ds, ps)
}

// TestQuantileExactAllocs is the allocation contract of the exact path: in
// steady state a finalize allocates its answer — the Histogram and its
// slice of occupied bins — and nothing else. A window of 14 atoms moves the
// CDF at no more than 14 grid edges, so its answer stores at most 14 of the
// 256 bins.
func TestQuantileExactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under -race")
	}
	a := kernelAgg(0.5, QuantileOptions{})
	for _, family := range []string{"atoms", "normal", "mixed"} {
		cs := benchWindow(a, family, 14)
		h, ok := a.result(cs).(*dist.Histogram)
		if !ok {
			t.Fatalf("%s window is not on the tabulating path", family)
		}
		if family == "atoms" {
			stored := 0
			for range h.Bins() {
				stored++
			}
			if stored > 14 {
				t.Errorf("atoms: answer stores %d of %d bins, want ≤ 14", stored, h.NBins())
			}
		}
		if avg := testing.AllocsPerRun(200, func() { a.result(cs) }); avg > 3 {
			t.Errorf("%s: %.1f allocs per result call, want ≤ 3", family, avg)
		}
	}
}

var benchSink dist.Dist

// BenchmarkQuantileExact compares the kernel with the per-edge tabulation
// it replaced, on the window sizes q3_slide_ckpt produces (mean ≈14) and at
// the MaxExact boundary.
func BenchmarkQuantileExact(b *testing.B) {
	a := kernelAgg(0.5, QuantileOptions{})
	for _, family := range []string{"atoms", "normal", "mixed"} {
		for _, n := range []int{14, 48} {
			cs := benchWindow(a, family, n)
			w, k, _ := a.rank(cs)
			b.Run(fmt.Sprintf("%s/n=%d/ref", family, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = a.exactRef(cs, w, k)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/kernel", family, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = a.result(cs)
				}
			})
		}
	}
}
