package dist

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/snap"
)

// denseHist is the dense histogram Histogram replaced: every bin's mass and
// running total, stored whether the bin is occupied or not. It is the
// reference the stored-bins form must match bit for bit. Its CDF carries the
// one deliberate change, NaN for a NaN position (the dense form indexed
// probs[MinInt] there and panicked).
type denseHist struct {
	Lo, Hi float64
	probs  []float64
	cum    []float64
}

func newDenseHist(lo, hi float64, masses []float64) *denseHist {
	if len(masses) == 0 {
		masses = []float64{1}
	}
	if hi <= lo {
		hi = lo + 1e-9
	}
	probs := make([]float64, len(masses))
	var total float64
	for i, m := range masses {
		if m > 0 {
			probs[i] = m
			total += m
		}
	}
	if total <= 0 {
		for i := range probs {
			probs[i] = 1
		}
		total = float64(len(probs))
	}
	for i := range probs {
		probs[i] /= total
	}
	return denseFromProbs(lo, hi, probs)
}

// denseFromProbs is the dense form's decode: stored masses taken verbatim,
// running totals rebuilt by the same fold, the top pinned to 1.
func denseFromProbs(lo, hi float64, probs []float64) *denseHist {
	cum := make([]float64, len(probs))
	var acc float64
	for i, p := range probs {
		acc += p
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return &denseHist{Lo: lo, Hi: hi, probs: probs, cum: cum}
}

func (h *denseHist) nBins() int              { return len(h.probs) }
func (h *denseHist) binWidth() float64       { return (h.Hi - h.Lo) / float64(len(h.probs)) }
func (h *denseHist) binCenter(i int) float64 { return h.Lo + (float64(i)+0.5)*h.binWidth() }

func (h *denseHist) mean() float64 {
	var m float64
	for i, p := range h.probs {
		m += p * h.binCenter(i)
	}
	return m
}

func (h *denseHist) variance() float64 {
	mean := h.mean()
	w := h.binWidth()
	var s float64
	for i, p := range h.probs {
		c := h.binCenter(i)
		s += p * (c*c + w*w/12)
	}
	v := s - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

func (h *denseHist) pdf(x float64) float64 {
	if x < h.Lo || x > h.Hi {
		return 0
	}
	return h.probs[h.binOf(x)] / h.binWidth()
}

func (h *denseHist) cdf(x float64) float64 {
	if x <= h.Lo {
		return 0
	}
	if x >= h.Hi {
		return 1
	}
	pos := (x - h.Lo) / h.binWidth()
	if math.IsNaN(pos) {
		return pos
	}
	i := int(pos)
	if i >= len(h.probs) {
		i = len(h.probs) - 1
	}
	var before float64
	if i > 0 {
		before = h.cum[i-1]
	}
	return before + (pos-float64(i))*h.probs[i]
}

func (h *denseHist) quantile(p float64) float64 {
	if p <= 0 {
		return h.Lo
	}
	if p >= 1 {
		return h.Hi
	}
	i := sort.SearchFloat64s(h.cum, p)
	if i >= len(h.probs) {
		i = len(h.probs) - 1
	}
	var before float64
	if i > 0 {
		before = h.cum[i-1]
	}
	frac := 0.0
	if h.probs[i] > 0 {
		frac = (p - before) / h.probs[i]
	}
	return h.Lo + (float64(i)+frac)*h.binWidth()
}

func (h *denseHist) cf(t float64) complex128 {
	w := h.binWidth()
	s := complex(sinc(t*w/2), 0)
	var out complex128
	for i, p := range h.probs {
		if p == 0 {
			continue
		}
		out += complex(p, 0) * cmplx.Exp(complex(0, t*h.binCenter(i)))
	}
	return out * s
}

func (h *denseHist) binOf(x float64) int {
	i := int((x - h.Lo) / h.binWidth())
	if i < 0 {
		return 0
	}
	if i >= len(h.probs) {
		return len(h.probs) - 1
	}
	return i
}

func (h *denseHist) String() string {
	return fmt.Sprintf("Hist[%.4g, %.4g]×%d", h.Lo, h.Hi, len(h.probs))
}

// encode writes the dense form's codec bytes: version, tag, Lo, Hi and the
// full mass vector.
func (h *denseHist) encode() []byte {
	w := &snap.Writer{}
	w.U8(distCodecV1)
	w.U8(tagHistogram)
	w.F64(h.Lo)
	w.F64(h.Hi)
	w.F64s(h.probs)
	return w.Bytes()
}

// histProbePoints are the x values every check evaluates PDF and CDF at:
// the specials, points outside the support, and each probed bin edge with
// its neighbouring floats.
func histProbePoints(ref *denseHist) []float64 {
	xs := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		ref.Lo, ref.Hi, ref.Lo - 1, ref.Hi + 1, ref.Lo - math.Abs(ref.Lo), ref.Hi + math.Abs(ref.Hi),
		math.MaxFloat64, -math.MaxFloat64}
	n := ref.nBins()
	w := ref.binWidth()
	edges := []int{0, 1, n / 2, n - 1, n}
	if n <= 32 {
		edges = edges[:0]
		for i := 0; i <= n; i++ {
			edges = append(edges, i)
		}
	}
	for i, p := range ref.probs {
		if p != 0 && n > 32 {
			edges = append(edges, i, i+1)
		}
	}
	for _, i := range edges {
		x := ref.Lo + float64(i)*w
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)), x+w/3)
	}
	return xs
}

// histProbeLevels are the p values every check evaluates Quantile at: the
// specials and each running total with its neighbouring floats.
func histProbeLevels(ref *denseHist) []float64 {
	ps := []float64{0, 1, math.NaN(), 1 - 1e-16, math.Copysign(0, -1), -1, 2, 0.5, 0.25, 1e-300,
		math.Nextafter(1, 0), math.SmallestNonzeroFloat64, math.Inf(1)}
	for _, c := range ref.cum {
		ps = append(ps, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
	}
	return ps
}

// diffDense returns the first method of h whose float64 bits differ from
// the dense reference's, or "" when every probe agrees. Any two NaNs are
// the same: which payload a NaN + NaN carries depends on the operand order
// the compiler picks (it differs under -race), and no caller can tell
// payloads apart — encoding/json refuses every NaN and %.17g prints each
// as "NaN".
func diffDense(h *Histogram, ref *denseHist) string {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	if !same(h.Lo, ref.Lo) || !same(h.Hi, ref.Hi) || h.NBins() != ref.nBins() {
		return fmt.Sprintf("range [%g, %g]×%d, want [%g, %g]×%d", h.Lo, h.Hi, h.NBins(), ref.Lo, ref.Hi, ref.nBins())
	}
	if h.String() != ref.String() {
		return fmt.Sprintf("String %q, want %q", h.String(), ref.String())
	}
	type probe struct {
		name      string
		got, want float64
	}
	probes := []probe{
		{"BinWidth", h.BinWidth(), ref.binWidth()},
		{"Mean", h.Mean(), ref.mean()},
		{"Variance", h.Variance(), ref.variance()},
		{"Std", h.Std(), math.Sqrt(ref.variance())},
	}
	for _, i := range []int{0, ref.nBins() - 1} {
		probes = append(probes, probe{fmt.Sprintf("BinCenter(%d)", i), h.BinCenter(i), ref.binCenter(i)})
	}
	masses := h.Masses()
	for i, p := range ref.probs {
		probes = append(probes, probe{fmt.Sprintf("Masses()[%d]", i), masses[i], p})
	}
	for _, x := range histProbePoints(ref) {
		probes = append(probes,
			probe{fmt.Sprintf("PDF(%.17g)", x), h.PDF(x), ref.pdf(x)},
			probe{fmt.Sprintf("CDF(%.17g)", x), h.CDF(x), ref.cdf(x)})
	}
	for _, p := range histProbeLevels(ref) {
		probes = append(probes, probe{fmt.Sprintf("Quantile(%.17g)", p), h.Quantile(p), ref.quantile(p)})
	}
	for _, t := range []float64{0, 0.5, -3, 17.25, 1e-3} {
		g, w := h.CF(t), ref.cf(t)
		probes = append(probes,
			probe{fmt.Sprintf("real CF(%g)", t), real(g), real(w)},
			probe{fmt.Sprintf("imag CF(%g)", t), imag(g), imag(w)})
	}
	for _, pr := range probes {
		if !same(pr.got, pr.want) {
			return fmt.Sprintf("%s = %.17g (%#x), want %.17g (%#x)", pr.name, pr.got, math.Float64bits(pr.got), pr.want, math.Float64bits(pr.want))
		}
	}
	last := -1
	for i, p := range h.Bins() {
		if i <= last || i >= ref.nBins() || !same(p, ref.probs[i]) {
			return fmt.Sprintf("Bins yields (%d, %g) after bin %d", i, p, last)
		}
		for j := last + 1; j < i; j++ {
			if ref.probs[j] != 0 {
				return fmt.Sprintf("Bins skips bin %d of mass %g", j, ref.probs[j])
			}
		}
		last = i
	}
	return ""
}

// diffDenseCodec checks the codec against the dense form: Encode writes
// the dense bytes, and decoding them gives a histogram that matches the
// reference on every probe.
func diffDenseCodec(h *Histogram, ref *denseHist) string {
	w := &snap.Writer{}
	if err := Encode(w, h); err != nil {
		return fmt.Sprintf("Encode: %v", err)
	}
	if want := ref.encode(); string(w.Bytes()) != string(want) {
		return fmt.Sprintf("Encode wrote %x, want %x", w.Bytes(), want)
	}
	return diffDecoded(ref)
}

// diffDecoded decodes the reference's bytes and compares the result with
// the reference.
func diffDecoded(ref *denseHist) string {
	r := snap.NewReader(ref.encode())
	d := Decode(r)
	if err := r.Close(); err != nil {
		return fmt.Sprintf("Decode: %v", err)
	}
	got, ok := d.(*Histogram)
	if !ok {
		return fmt.Sprintf("Decode returned %T", d)
	}
	if s := diffDense(got, ref); s != "" {
		return "decoded: " + s
	}
	return ""
}
