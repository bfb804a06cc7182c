package cf

import (
	"math"
	"math/cmplx"

	"repro/internal/dist"
	"repro/internal/mathx"
)

// ApproxGaussianSum returns the Gaussian approximation of the sum of
// independent variables by cumulant matching: the parameters that make the
// Gaussian CF exp(iμt − σ²t²/2) agree with the closed-form product CF to
// second order at t = 0. This is the "CF (approx.)" row of Table 2 — two
// additions per tuple, no integration — and also the Central Limit Theorem
// approximation the paper invokes for large windows ("computation cost...
// almost zero").
func ApproxGaussianSum(ds []dist.Dist) dist.Normal {
	mean, variance := SumMoments(ds)
	return GaussianFromCumulants(Cumulants{K1: mean, K2: variance})
}

// GMMFitOptions tunes FitGMMToCF.
type GMMFitOptions struct {
	// K is the number of mixture components (default 2).
	K int
	// TGrid is the number of CF sample points (default 24).
	TGrid int
	// MaxIter bounds the simplex iterations (default 1200).
	MaxIter int
}

// FitGMMToCF fits a K-component Gaussian mixture to a target characteristic
// function by least squares on a t-grid — §5.1: "the parameters of these
// distributions can be identified by fitting the characteristic functions of
// the Gaussian or mixture of Gaussian distributions to the closed form
// characteristic function of the sum." The grid is scaled to the target's
// cumulant bandwidth (|φ| of a spread-σ law decays on the 1/σ scale).
func FitGMMToCF(phi Func, opts GMMFitOptions) *dist.Mixture {
	k := opts.K
	if k <= 0 {
		k = 2
	}
	tg := opts.TGrid
	if tg <= 0 {
		tg = 24
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 1200
	}
	mean, variance := NumericCumulants(phi)
	sd := math.Sqrt(math.Max(variance, 1e-12))

	// Sample the CF where it carries information: |t| up to ~4/σ.
	ts := mathx.Linspace(1e-3/sd, 4/sd, tg)
	targets := make([]complex128, tg)
	for i, t := range ts {
		targets[i] = phi(t)
	}

	// Parameters: for each component (mu offset in σ units, log sigma in σ
	// units) and k−1 logit weights.
	unpack := func(p []float64) (ws, mus, sigmas []float64) {
		mus = make([]float64, k)
		sigmas = make([]float64, k)
		raw := make([]float64, k)
		for j := 0; j < k; j++ {
			mus[j] = mean + p[2*j]*sd
			sigmas[j] = sd * math.Exp(p[2*j+1])
			if sigmas[j] < 1e-9*sd {
				sigmas[j] = 1e-9 * sd
			}
		}
		for j := 0; j < k-1; j++ {
			raw[j] = p[2*k+j]
		}
		raw[k-1] = 0
		var total float64
		ws = make([]float64, k)
		for j := range raw {
			ws[j] = math.Exp(raw[j])
			total += ws[j]
		}
		for j := range ws {
			ws[j] /= total
		}
		return ws, mus, sigmas
	}

	objective := func(p []float64) float64 {
		ws, mus, sigmas := unpack(p)
		var sse float64
		for i, t := range ts {
			var model complex128
			for j := 0; j < k; j++ {
				model += complex(ws[j], 0) *
					cmplx.Exp(complex(-0.5*sigmas[j]*sigmas[j]*t*t, mus[j]*t))
			}
			d := model - targets[i]
			sse += real(d)*real(d) + imag(d)*imag(d)
		}
		return sse
	}

	// Initialize components straddling the mean.
	p0 := make([]float64, 3*k-1)
	for j := 0; j < k; j++ {
		p0[2*j] = -1 + 2*float64(j)/math.Max(1, float64(k-1)) // offsets in σ units
		p0[2*j+1] = math.Log(0.7)
	}
	best, _ := mathx.NelderMead(objective, p0, mathx.NelderMeadOptions{MaxIter: maxIter, Tol: 1e-12})
	ws, mus, sigmas := unpack(best)
	return dist.NewGaussianMixture(ws, mus, sigmas)
}

// PairwiseConvolutionSum is the baseline of Cheng et al. [9]: the result
// density of a sum of n variables computed with n−1 successive pairwise
// convolutions, each a numeric integral per output grid point (O(n·G²)
// total). The paper argues — and Table 2's companion ablation shows — this
// is infeasible at stream rates; it exists here as the comparator.
func PairwiseConvolutionSum(ds []dist.Dist, gridN int) *dist.Histogram {
	if gridN <= 0 {
		gridN = 256
	}
	if len(ds) == 0 {
		panic("cf: PairwiseConvolutionSum needs inputs")
	}
	// Running grid covering the partial sum's support.
	mean, variance := ds[0].Mean(), ds[0].Variance()
	cur := dist.Discretize(ds[0], gridN)
	for _, d := range ds[1:] {
		mean += d.Mean()
		variance += d.Variance()
		sd := math.Sqrt(math.Max(variance, 1e-300))
		lo, hi := mean-10*sd, mean+10*sd
		next := dist.Discretize(d, gridN)
		cur = convolvePair(cur, next, lo, hi, gridN)
	}
	return cur
}

// convolvePair numerically convolves two histogram densities onto a fresh
// grid with direct quadrature (deliberately not FFT: the cost model of [9]
// is per-point integration).
func convolvePair(a, b *dist.Histogram, lo, hi float64, gridN int) *dist.Histogram {
	masses := make([]float64, gridN)
	w := (hi - lo) / float64(gridN)
	// Integrate f_a(x) f_b(z−x) dx over a's support for each output z.
	aw := a.BinWidth()
	for zi := 0; zi < gridN; zi++ {
		z := lo + (float64(zi)+0.5)*w
		var s float64
		for i, p := range a.Bins() {
			x := a.BinCenter(i)
			fa := p / aw
			if fa == 0 {
				continue
			}
			s += fa * b.PDF(z-x) * aw
		}
		masses[zi] = s * w
	}
	return dist.NewHistogram(lo, hi, masses)
}
