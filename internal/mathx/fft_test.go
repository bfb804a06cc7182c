package mathx

import (
	"math"
	"math/cmplx"
	"testing"
)

// ifft is the inverse DFT (including the 1/N scale), the round-trip
// partner of FFT. len(x) must be a power of two.
func ifft(x []complex128) {
	fftDir(x, +1)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)*0.7), math.Cos(float64(i)*1.3))
	}
	orig := append([]complex128(nil), x...)
	FFT(x)
	ifft(x)
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestFFTDelta(t *testing.T) {
	// FFT of a delta at index 0 is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("delta FFT[%d] = %v, want 1", i, v)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	n := 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	FFT(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Errorf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 12))
}
