package mathx

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-place forward discrete Fourier transform of x using the
// iterative radix-2 Cooley-Tukey algorithm. len(x) must be a power of two.
//
//	X[k] = sum_n x[n] * exp(-2*pi*i*n*k/N)
func FFT(x []complex128) {
	fftDir(x, -1)
}

func fftDir(x []complex128, sign float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("mathx: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := x[start+k]
				odd := x[start+k+half] * w
				x[start+k] = even + odd
				x[start+k+half] = even - odd
				w *= wBase
			}
		}
	}
}
