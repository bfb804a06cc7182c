package mathx

// BisectMonotone inverts a monotone nondecreasing function g on [lo, hi] for
// target y by bisection; used for quantiles of numeric CDFs, where g may be
// flat in places.
func BisectMonotone(g func(float64) float64, y, lo, hi, tol float64) float64 {
	if tol <= 0 {
		tol = 1e-10
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if g(mid) < y {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
