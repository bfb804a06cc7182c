package dist

import (
	"fmt"
	"iter"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/rng"
)

// Histogram is an equi-width binned distribution on [Lo, Hi]: the
// representation of Ge & Zdonik's baseline [25], the output of CF inversion,
// and the collection format of the Monte Carlo strategies. The density is
// piecewise-uniform: bin i's mass spread evenly over bin i, so the CDF is
// piecewise-linear and every moment has a closed form.
//
// Only occupied bins are stored: an exact quantile over n atoms fills at
// most n of its 256 bins. Dropping an empty bin drops a term that adds exactly ±0
// to every sum a method computes, so each method returns the float64 bits
// the dense vector would. That holds while every bin centre c and
// c² + w²/12 are finite and every mass is finite and non-negative; when
// they are not (a support near ±MaxFloat64, a +Inf mass), every bin is
// stored.
type Histogram struct {
	Lo, Hi float64
	// n is the bin count.
	n int
	// bins are the stored bins in ascending index order.
	bins []bin
}

// bin is one stored bin: its index, its normalised mass, and the total mass
// of bins 0..i.
type bin struct {
	i      int
	p, cum float64
}

// NewHistogram builds a histogram from (possibly unnormalized, possibly
// raw-count) bin masses on [lo, hi]. Negative masses are clamped to zero —
// CF inversion ringing below machine scale shows up here — and the result
// is normalized to total mass 1.
func NewHistogram(lo, hi float64, masses []float64) *Histogram {
	if len(masses) == 0 {
		masses = []float64{1}
	}
	occupied := 0
	for _, m := range masses {
		if m > 0 {
			occupied++
		}
	}
	bins := make([]bin, 0, occupied)
	for i, m := range masses {
		if m > 0 {
			bins = append(bins, bin{i: i, p: m})
		}
	}
	return newHistogram(lo, hi, len(masses), bins)
}

// NewSparseHistogram is NewHistogram over the n-bin mass vector that is zero
// except at bins idx[j], which hold masses[j]; idx must ascend strictly
// within [0, n). It returns the same histogram, bit for bit, without the
// dense vector: a caller that knows where its masses are (an exact quantile
// over n atoms writes at most n of its bins) hands over only those.
func NewSparseHistogram(lo, hi float64, n int, idx []int, masses []float64) *Histogram {
	if n <= 0 {
		return NewHistogram(lo, hi, nil)
	}
	bins := make([]bin, 0, len(idx))
	for j, i := range idx {
		if m := masses[j]; m > 0 {
			bins = append(bins, bin{i: i, p: m})
		}
	}
	return newHistogram(lo, hi, n, bins)
}

// newHistogram builds an n-bin histogram from its positive raw masses,
// carried in bins' p in ascending index order. It normalizes them in place;
// the total is the sum of the same masses in the same order a dense scan
// adds them in.
func newHistogram(lo, hi float64, n int, bins []bin) *Histogram {
	if hi <= lo {
		hi = lo + 1e-9
	}
	var total float64
	inf := false
	for _, b := range bins {
		total += b.p
		inf = inf || math.IsInf(b.p, 1)
	}
	h := &Histogram{Lo: lo, Hi: hi, n: n}
	// Degenerate input falls back to a uniform density; +Inf/+Inf is a NaN
	// mass. Either, or a range whose empty bins do not add exactly ±0,
	// stores every bin.
	if uniform := total <= 0; uniform || inf || !h.sparseExact() {
		h.bins = denseBins(n, bins, total, uniform)
		h.pin()
		return h
	}
	var acc float64
	k := 0
	for _, b := range bins {
		p := b.p / total
		if p == 0 {
			continue // underflow: the dense vector holds +0 here too
		}
		acc += p
		bins[k] = bin{i: b.i, p: p, cum: acc}
		k++
	}
	h.bins = bins[:k]
	h.pin()
	return h
}

// denseBins stores all n bins: the positive raw masses in bins normalized by
// total, zero everywhere else, or 1/n each when uniform.
func denseBins(n int, bins []bin, total float64, uniform bool) []bin {
	if uniform {
		total = float64(n)
	}
	out := make([]bin, n)
	var acc float64
	k := 0
	for i := range out {
		m := 0.0
		if uniform {
			m = 1
		} else if k < len(bins) && bins[k].i == i {
			m = bins[k].p
			k++
		}
		p := m / total
		acc += p
		out[i] = bin{i: i, p: p, cum: acc}
	}
	return out
}

// sparseExact reports whether empty bins may be left out: true when the
// bin width, every bin centre c and every c² + w²/12 are finite, so an empty
// bin's Mean and Variance terms are exactly ±0. Centres are monotone in the
// index, so the two end bins bound the rest.
func (h *Histogram) sparseExact() bool {
	w := h.BinWidth()
	if math.IsInf(w, 0) || math.IsNaN(w) {
		return false
	}
	for _, i := range [2]int{0, h.n - 1} {
		c := h.BinCenter(i)
		if v := c*c + w*w/12; math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// pin sets a stored top bin's running total to exactly 1, as the dense
// fold pinned cum[n-1] against rounding drift. While the totals ascend
// Quantile's fall-through to the top bin gives the same answer unpinned,
// but a decoded vector with a negative or NaN mass is searched bin by bin
// as the dense form was, and there the pin steers the binary search.
func (h *Histogram) pin() {
	if k := len(h.bins) - 1; k >= 0 && h.bins[k].i == h.n-1 {
		h.bins[k].cum = 1
	}
}

// lookup returns bin i's mass and the total mass of bins 0..i-1 (0 for
// i = 0), as the dense vectors' probs[i] and cum[i-1] would.
func (h *Histogram) lookup(i int) (p, before float64) {
	k := sort.Search(len(h.bins), func(j int) bool { return h.bins[j].i >= i })
	if k > 0 {
		before = h.bins[k-1].cum
	}
	if k < len(h.bins) && h.bins[k].i == i {
		p = h.bins[k].p
	}
	return p, before
}

// NBins returns the bin count.
func (h *Histogram) NBins() int { return h.n }

// Bins yields the index and normalised mass of each stored bin in ascending
// index order. Every bin it skips has mass exactly 0.
func (h *Histogram) Bins() iter.Seq2[int, float64] {
	return func(yield func(int, float64) bool) {
		for _, b := range h.bins {
			if !yield(b.i, b.p) {
				return
			}
		}
	}
}

// Masses returns a fresh dense vector of the NBins bin masses.
func (h *Histogram) Masses() []float64 {
	out := make([]float64, h.n)
	for _, b := range h.bins {
		out[b.i] = b.p
	}
	return out
}

// BinWidth returns the common bin width.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(h.n) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Mean returns the exact mean of the piecewise-uniform density.
func (h *Histogram) Mean() float64 {
	var m float64
	for _, b := range h.bins {
		m += b.p * h.BinCenter(b.i)
	}
	return m
}

// Variance returns the exact variance of the piecewise-uniform density
// (each bin contributes its within-bin uniform variance w²/12).
func (h *Histogram) Variance() float64 {
	mean := h.Mean()
	w := h.BinWidth()
	var s float64
	for _, b := range h.bins {
		c := h.BinCenter(b.i)
		s += b.p * (c*c + w*w/12)
	}
	v := s - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// Std returns the standard deviation.
func (h *Histogram) Std() float64 { return math.Sqrt(h.Variance()) }

// PDF returns the bin density mass/width (0 outside [Lo, Hi]).
func (h *Histogram) PDF(x float64) float64 {
	if x < h.Lo || x > h.Hi {
		return 0
	}
	p, _ := h.lookup(h.binOf(x))
	return p / h.BinWidth()
}

// CDF interpolates linearly inside bins. It is NaN when x is NaN, or when
// x − Lo and the bin width both overflow.
func (h *Histogram) CDF(x float64) float64 {
	if x <= h.Lo {
		return 0
	}
	if x >= h.Hi {
		return 1
	}
	w := h.BinWidth()
	pos := (x - h.Lo) / w
	if math.IsNaN(pos) {
		return pos
	}
	i := int(pos)
	if i >= h.n {
		i = h.n - 1
	}
	p, before := h.lookup(i)
	return before + (pos-float64(i))*p
}

// Quantile inverts the piecewise-linear CDF. When every stored running
// total is below p (p is NaN, or the top bin is empty and p is above the
// last occupied bin's total) it falls to the top bin, as the dense form's
// pinned cum[n-1] = 1 did.
func (h *Histogram) Quantile(p float64) float64 {
	if p <= 0 {
		return h.Lo
	}
	if p >= 1 {
		return h.Hi
	}
	i := h.n - 1
	if k := sort.Search(len(h.bins), func(j int) bool { return h.bins[j].cum >= p }); k < len(h.bins) {
		i = h.bins[k].i
	}
	mass, before := h.lookup(i)
	frac := 0.0
	if mass > 0 {
		frac = (p - before) / mass
	}
	return h.Lo + (float64(i)+frac)*h.BinWidth()
}

// Sample draws by inverse-CDF, matching the linear within-bin semantics.
func (h *Histogram) Sample(g *rng.RNG) float64 { return h.Quantile(g.Float64()) }

// CF is the exact characteristic function of the piecewise-uniform density:
// Σ pᵢ · exp(it·cᵢ) · sinc(t·w/2).
func (h *Histogram) CF(t float64) complex128 {
	w := h.BinWidth()
	s := complex(sinc(t*w/2), 0)
	var out complex128
	for _, b := range h.bins {
		if b.p == 0 {
			continue
		}
		out += complex(b.p, 0) * cmplx.Exp(complex(0, t*h.BinCenter(b.i)))
	}
	return out * s
}

// Support returns [Lo, Hi].
func (h *Histogram) Support() (float64, float64) { return h.Lo, h.Hi }

// String formats the distribution for diagnostics.
func (h *Histogram) String() string {
	return fmt.Sprintf("Hist[%.4g, %.4g]×%d", h.Lo, h.Hi, h.n)
}

// binOf maps x (inside the support) to its bin index.
func (h *Histogram) binOf(x float64) int {
	i := int((x - h.Lo) / h.BinWidth())
	if i < 0 {
		return 0
	}
	if i >= h.n {
		return h.n - 1
	}
	return i
}

// Discretize converts any distribution into an equi-width histogram over its
// effective support by exact CDF differencing — the per-tuple preprocessing
// step of the Histogram baseline. Mass is conserved by construction (the
// masses are CDF increments, renormalized over the covered range).
func Discretize(d Dist, bins int) *Histogram {
	if bins <= 0 {
		bins = 32
	}
	if h, ok := d.(*Histogram); ok && h.NBins() == bins {
		// Copy rather than alias so callers may treat the result as scratch.
		return NewHistogram(h.Lo, h.Hi, h.Masses())
	}
	lo, hi := EffectiveRange(d, 1e-9)
	if hi <= lo {
		hi = lo + 1e-9
	}
	w := (hi - lo) / float64(bins)
	masses := make([]float64, bins)
	// Seed at 0, not d.CDF(lo): an atom sitting exactly at the lower bound
	// (the Bernoulli gate's δ(0) under a positive-valued attribute) is
	// included in CDF(lo) and would otherwise be renormalized away. Bin 0
	// therefore absorbs the ≤eps tail below lo together with any such atom.
	prev := 0.0
	for i := 0; i < bins; i++ {
		next := d.CDF(lo + float64(i+1)*w)
		masses[i] = math.Max(0, next-prev)
		prev = next
	}
	return NewHistogram(lo, hi, masses)
}
