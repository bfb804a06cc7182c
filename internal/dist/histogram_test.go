package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// histShapes are mass vectors of n bins in the shapes the stored-bins form
// must get right: no occupied bin (the uniform fallback), one bin, every
// bin, sparse with the top bin empty or occupied, and masses that clamp,
// underflow to 0, overflow the total or are +Inf.
func histShapes(g *rand.Rand, n int) map[string][]float64 {
	zeros := make([]float64, n)
	one := make([]float64, n)
	one[g.Intn(n)] = 1 + g.Float64()
	all := make([]float64, n)
	for i := range all {
		all[i] = g.Float64() + 0.01
	}
	sparseTop := make([]float64, n)
	sparseEmptyTop := make([]float64, n)
	for i := range sparseTop {
		if g.Intn(8) == 0 {
			sparseTop[i] = g.ExpFloat64()
			sparseEmptyTop[i] = sparseTop[i]
		}
	}
	sparseTop[n-1] = g.Float64() + 0.1
	sparseEmptyTop[n-1] = 0
	if n > 1 {
		sparseEmptyTop[0] = 0.5
	}
	clamped := make([]float64, n)
	for i := range clamped {
		switch g.Intn(5) {
		case 0:
			clamped[i] = -g.Float64()
		case 1:
			clamped[i] = math.NaN()
		case 2:
			clamped[i] = math.Inf(-1)
		case 3:
			clamped[i] = math.Copysign(0, -1)
		default:
			clamped[i] = g.Float64()
		}
	}
	underflow := make([]float64, n)
	underflow[0] = math.MaxFloat64 / 2
	underflow[n-1] = math.SmallestNonzeroFloat64
	overflow := make([]float64, n)
	for i := 0; i < n; i += 2 {
		overflow[i] = math.MaxFloat64
	}
	inf := make([]float64, n)
	inf[g.Intn(n)] = math.Inf(1)
	inf[g.Intn(n)] = 3
	counts := make([]float64, n)
	for i := range counts {
		counts[i] = float64(g.Intn(3) * g.Intn(40))
	}
	return map[string][]float64{
		"zeros": zeros, "one": one, "all": all, "sparse-top": sparseTop,
		"sparse-empty-top": sparseEmptyTop, "clamped": clamped,
		"underflow": underflow, "overflow": overflow, "inf": inf, "counts": counts,
	}
}

// histRanges are supports, including ones whose bin width, centres or
// c² + w²/12 overflow (so every bin must be stored), an empty range (hi
// raised by 1e-9, or not at all at 1e300) and a NaN end.
var histRanges = [][2]float64{
	{0, 1}, {-3.5, 12.25}, {5, 5}, {1e300, 1e300}, {-2e-300, 3e-300},
	{-1e308, 1e308}, {-math.MaxFloat64, math.MaxFloat64}, {1e200, 2e200},
	{-1e155, 1e154}, {math.Inf(-1), 0}, {0, math.Inf(1)}, {math.NaN(), 1}, {4, -4},
}

// TestHistogramMatchesDense is the stored-bins form's contract: for every
// shape, size and range, every method returns the dense form's bits, the
// codec writes the dense form's bytes, and decoding them gives the same
// bits again. The sparse entry, handed the shape's nonzero bins plus some
// zero ones, builds the dense entry's histogram bit for bit.
func TestHistogramMatchesDense(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 33, 256} {
		for name, masses := range histShapes(g, n) {
			for _, r := range histRanges {
				ref := newDenseHist(r[0], r[1], masses)
				h := NewHistogram(r[0], r[1], masses)
				if s := diffDense(h, ref); s != "" {
					t.Fatalf("n=%d %s on [%g, %g]: %s", n, name, r[0], r[1], s)
				}
				if s := diffDenseCodec(h, ref); s != "" {
					t.Fatalf("n=%d %s on [%g, %g]: %s", n, name, r[0], r[1], s)
				}
				var idx []int
				var ms []float64
				for i, m := range masses {
					if m != 0 || i%5 == 0 {
						idx, ms = append(idx, i), append(ms, m)
					}
				}
				if s := diffBits(NewSparseHistogram(r[0], r[1], n, idx, ms), h); s != "" {
					t.Fatalf("n=%d %s on [%g, %g]: sparse entry: %s", n, name, r[0], r[1], s)
				}
			}
		}
	}
}

// diffBits reports the first difference between two histograms' fields, the
// stored bins compared as float64 bits.
func diffBits(a, b *Histogram) string {
	bits := math.Float64bits
	if bits(a.Lo) != bits(b.Lo) || bits(a.Hi) != bits(b.Hi) || a.n != b.n || len(a.bins) != len(b.bins) {
		return fmt.Sprintf("[%g, %g] %d bins, %d stored vs [%g, %g] %d bins, %d stored",
			a.Lo, a.Hi, a.n, len(a.bins), b.Lo, b.Hi, b.n, len(b.bins))
	}
	for k, x := range a.bins {
		y := b.bins[k]
		if x.i != y.i || bits(x.p) != bits(y.p) || bits(x.cum) != bits(y.cum) {
			return fmt.Sprintf("stored bin %d: %+v vs %+v", k, x, y)
		}
	}
	return ""
}

// TestHistogramDecodeMatchesDense decodes stored mass vectors that
// NewHistogram never writes — negative, −0, NaN, ±Inf, unnormalised — as
// a corrupt or hand-made checkpoint may carry them; the decoded histogram
// must still answer exactly as the dense decode did.
func TestHistogramDecodeMatchesDense(t *testing.T) {
	// Running totals 0.1 0.2 0.3 0.8 0.2: at p = 0.5 the binary search
	// probes the top bin, and only its pinned total of 1 leads it back to
	// bin 3.
	if s := diffDecoded(denseFromProbs(0, 5, []float64{0.1, 0.1, 0.1, 0.5, -0.6})); s != "" {
		t.Fatalf("descending top total: %s", s)
	}
	g := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 64} {
		for name, masses := range histShapes(g, n) {
			for _, r := range histRanges {
				if s := diffDecoded(denseFromProbs(r[0], r[1], masses)); s != "" {
					t.Fatalf("n=%d %s on [%g, %g]: %s", n, name, r[0], r[1], s)
				}
			}
		}
	}
}

// TestHistogramStoresOccupiedBins pins the point of the form: a histogram
// stores its occupied bins and no more, unless its range forces every bin.
func TestHistogramStoresOccupiedBins(t *testing.T) {
	masses := make([]float64, 256)
	for _, i := range []int{3, 40, 41, 200} {
		masses[i] = float64(i)
	}
	stored := func(h *Histogram) (n int) {
		for range h.Bins() {
			n++
		}
		return n
	}
	if n := stored(NewHistogram(10, 90, masses)); n != 4 {
		t.Errorf("stores %d bins, want the 4 occupied", n)
	}
	if n := stored(NewHistogram(-1e308, 1e308, masses)); n != 256 {
		t.Errorf("infinite bin width: stores %d bins, want all 256", n)
	}
}

// TestHistogramCDFNaN pins CDF at a NaN position: NaN, not an index out of
// range (the dense form read probs[MinInt] and panicked). The second case
// is a finite x whose distance from Lo overflows like the width.
func TestHistogramCDFNaN(t *testing.T) {
	h := NewHistogram(0, 10, []float64{1, 2, 3, 4})
	if c := h.CDF(math.NaN()); !math.IsNaN(c) {
		t.Errorf("CDF(NaN) = %g, want NaN", c)
	}
	wide := NewHistogram(-1e308, 1e308, []float64{1, 2, 3, 4})
	if c := wide.CDF(9e307); !math.IsNaN(c) {
		t.Errorf("CDF(9e307) on an overflowing width = %g, want NaN", c)
	}
}

// FuzzHistogram runs the dense-equivalence check on fuzzed supports and
// mass vectors (eight bytes per mass), both through NewHistogram and as a
// decoded stored vector.
func FuzzHistogram(f *testing.F) {
	seed := func(lo, hi float64, masses ...float64) {
		b := make([]byte, 8*len(masses))
		for i, m := range masses {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(m))
		}
		f.Add(lo, hi, b)
	}
	seed(0, 1, 0, 0, 3, 0)
	seed(0, 1, 1)
	seed(-5, 5, 0, 1, 0, 0, 2, 0, 0, 0)
	seed(-1e308, 1e308, 0, 1, 0)
	seed(1e200, 2e200, 0, 1, 0)
	seed(3, 3, math.Inf(1), 1, 0)
	seed(0, 1, -1, math.NaN(), math.Copysign(0, -1), 2)
	f.Fuzz(func(t *testing.T, lo, hi float64, raw []byte) {
		masses := make([]float64, min(len(raw)/8, 300))
		for i := range masses {
			masses[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		ref := newDenseHist(lo, hi, masses)
		h := NewHistogram(lo, hi, masses)
		if s := diffDense(h, ref); s != "" {
			t.Fatal(s)
		}
		if s := diffDenseCodec(h, ref); s != "" {
			t.Fatal(s)
		}
		if len(masses) > 0 {
			if s := diffDecoded(denseFromProbs(lo, hi, masses)); s != "" {
				t.Fatal(s)
			}
		}
	})
}
