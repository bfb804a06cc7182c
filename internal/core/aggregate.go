package core

import (
	"fmt"
	"math"

	"repro/internal/cf"
	"repro/internal/dist"
	"repro/internal/mathx"
	"repro/internal/rng"
	streampkg "repro/internal/stream"
	"repro/internal/timeseries"
)

// Strategy selects how aggregation derives the result distribution (§5.1).
type Strategy int

// Aggregation strategies. The first three are the Table 2 algorithms; the
// rest are the paper's additional techniques and comparators.
const (
	// CFInvert derives the exact result via the product of closed-form
	// characteristic functions and one FFT inversion (the "single
	// integral" exact method — Table 2 row "CF (inversion)").
	CFInvert Strategy = iota
	// CFApprox fits a Gaussian to the closed-form product CF by cumulant
	// matching (Table 2 row "CF (approx.)" — fastest and nearly exact).
	CFApprox
	// HistogramSampling is the baseline of Ge & Zdonik [25]: discretize
	// each input to a histogram and Monte Carlo the sum (Table 2 row
	// "Histogram").
	HistogramSampling
	// MonteCarlo samples the exact input distributions directly.
	MonteCarlo
	// PairwiseIntegrals is Cheng et al. [9]: n−1 numeric pairwise
	// convolutions — the paper argues it is infeasible at stream rates.
	PairwiseIntegrals
	// CLT is the Central Limit Theorem approximation from input moments —
	// "the computation cost for the result distribution is almost zero".
	CLT
	// CFApproxGMM fits a Gaussian mixture to the product CF (for multi-
	// modal exact results, §5.1's "mixture of Gaussian" fit).
	CFApproxGMM
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case CFInvert:
		return "CF(inversion)"
	case CFApprox:
		return "CF(approx)"
	case HistogramSampling:
		return "Histogram"
	case MonteCarlo:
		return "MonteCarlo"
	case PairwiseIntegrals:
		return "Pairwise(n-1 integrals)"
	case CLT:
		return "CLT"
	case CFApproxGMM:
		return "CF(approx-GMM)"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// AggOptions tunes the approximate strategies.
type AggOptions struct {
	// GridN is the inversion grid size (default 2048).
	GridN int
	// HistBins is the per-input histogram resolution for
	// HistogramSampling (default 32).
	HistBins int
	// Samples is the Monte Carlo draw count (default 1000).
	Samples int
	// OutBins is the output histogram resolution for sampling strategies
	// (default 64).
	OutBins int
	// Seed drives the sampling strategies.
	Seed int64
	// GMMComponents for CFApproxGMM (default 2).
	GMMComponents int
}

func (o AggOptions) withDefaults() AggOptions {
	if o.GridN <= 0 {
		o.GridN = 2048
	}
	if o.HistBins <= 0 {
		o.HistBins = 32
	}
	if o.Samples <= 0 {
		o.Samples = 1000
	}
	if o.OutBins <= 0 {
		o.OutBins = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.GMMComponents <= 0 {
		o.GMMComponents = 2
	}
	return o
}

// Sum derives the distribution of the sum of independent uncertain
// attributes using the chosen strategy.
func Sum(ds []dist.Dist, strat Strategy, opts AggOptions) dist.Dist {
	if len(ds) == 0 {
		return dist.PointMass{V: 0}
	}
	opts = opts.withDefaults()
	switch strat {
	case CFInvert:
		return cf.Invert(cf.SumOf(ds), cf.InvertOptions{N: opts.GridN})
	case CFApprox:
		return cf.ApproxGaussianSum(ds)
	case CLT:
		mean, variance := cf.SumMoments(ds)
		return cf.GaussianFromCumulants(cf.Cumulants{K1: mean, K2: variance})
	case HistogramSampling:
		return histogramSamplingSum(ds, opts)
	case MonteCarlo:
		return monteCarloSum(ds, opts)
	case PairwiseIntegrals:
		return cf.PairwiseConvolutionSum(ds, 256)
	case CFApproxGMM:
		return cf.FitGMMToCF(cf.SumOf(ds), cf.GMMFitOptions{K: opts.GMMComponents})
	default:
		panic("core: unknown aggregation strategy")
	}
}

// SumTuples aggregates one attribute over a window of tuples, producing a
// derived tuple whose lineage is the union of the window (§3's architecture:
// aggregates carry lineage so later operators can detect correlation).
// Tuples with existence < 1 contribute Bernoulli-gated distributions: with
// probability 1−p they contribute zero (the tuple does not exist), exactly
// the semantics of sum over a probabilistic relation.
func SumTuples(tuples []*UTuple, attr string, strat Strategy, opts AggOptions) *UTuple {
	ds := make([]dist.Dist, 0, len(tuples))
	var ts streampkg.Time
	for _, u := range tuples {
		d := u.Attr(attr)
		if u.Exist < 1 {
			d = BernoulliGate(d, u.Exist)
		}
		ds = append(ds, d)
		if u.TS > ts {
			ts = u.TS
		}
	}
	out := Derive(ts, []string{attr}, []dist.Dist{Sum(ds, strat, opts)}, tuples...)
	out.Exist = 1 // the aggregate row itself always exists (possibly summing to 0)
	return out
}

// BernoulliGate returns the distribution of X·B where B ~ Bernoulli(p): a
// mixture of a point mass at 0 and the value distribution. Its CF is
// (1−p) + p·φ_X(t) — closed form, so the exact CF strategies handle
// probabilistic tuples without special cases.
func BernoulliGate(d dist.Dist, p float64) dist.Dist {
	p = mathx.Clamp(p, 0, 1)
	if p >= 1 {
		return d
	}
	if p <= 0 {
		return dist.PointMass{V: 0}
	}
	return dist.NewMixture([]float64{1 - p, p}, []dist.Dist{dist.PointMass{V: 0}, d})
}

// Count derives the distribution of the number of existing tuples in a
// probabilistic window: a sum of independent Bernoullis (Poisson-binomial),
// computed exactly by dynamic programming.
func Count(tuples []*UTuple) dist.Dist {
	// One buffer, updated in place back-to-front (probs[k] depends on the
	// previous iteration's probs[k] and probs[k−1], both still untouched
	// when walking k downward) — a fresh slice per tuple would make the DP
	// O(n²) in allocations for an O(n²) compute.
	probs := make([]float64, 1, len(tuples)+1) // P(count = k) vector
	probs[0] = 1
	for _, u := range tuples {
		p := mathx.Clamp(u.Exist, 0, 1)
		probs = append(probs, 0)
		for k := len(probs) - 1; k >= 1; k-- {
			probs[k] = probs[k-1]*p + probs[k]*(1-p)
		}
		probs[0] *= 1 - p
	}
	n := len(probs)
	// Represent as a histogram with one bin per integer.
	return dist.NewHistogram(-0.5, float64(n)-0.5, probs)
}

// histogramSamplingSum is Ge & Zdonik's algorithm [25]: discretize each
// input into an equi-width histogram, then Monte Carlo the sum by sampling
// each histogram once per draw, collecting the draws into a result
// histogram.
func histogramSamplingSum(ds []dist.Dist, opts AggOptions) dist.Dist {
	g := rng.New(opts.Seed)
	hists := make([]*dist.Histogram, len(ds))
	for i, d := range ds {
		if h, ok := d.(*dist.Histogram); ok && h.NBins() <= opts.HistBins {
			hists[i] = h
		} else {
			hists[i] = dist.Discretize(d, opts.HistBins)
		}
	}
	sums := make([]float64, opts.Samples)
	for s := range sums {
		var total float64
		for _, h := range hists {
			total += h.Sample(g)
		}
		sums[s] = total
	}
	return histFromSamples(sums, opts.OutBins)
}

// monteCarloSum samples the exact input distributions.
func monteCarloSum(ds []dist.Dist, opts AggOptions) dist.Dist {
	g := rng.New(opts.Seed)
	sums := make([]float64, opts.Samples)
	for s := range sums {
		var total float64
		for _, d := range ds {
			total += d.Sample(g)
		}
		sums[s] = total
	}
	return histFromSamples(sums, opts.OutBins)
}

func histFromSamples(xs []float64, bins int) dist.Dist {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi <= lo {
		hi = lo + 1e-9
	}
	// Pad slightly so boundary samples fall inside.
	pad := (hi - lo) * 0.01
	lo -= pad
	hi += pad
	masses := make([]float64, bins)
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i >= bins {
			i = bins - 1
		}
		masses[i]++
	}
	return dist.NewHistogram(lo, hi, masses)
}

// MeanCorrelatedMA derives the distribution of the mean of a realized MA(q)
// time series — §5.1's correlated-variables case, solved with the Central
// Limit Theorem for time series (one ACF scan, no model fitting).
func MeanCorrelatedMA(series []float64, q int) dist.Normal {
	return timeseries.MeanCLT(series, q)
}
