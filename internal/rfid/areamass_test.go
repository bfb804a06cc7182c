package rfid

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
)

// areaMass is one candidate area with the probability the object is in it.
type areaMass struct {
	Area string
	P    float64
}

func newAreaMass(area string, p float64) areaMass { return areaMass{Area: area, P: p} }

// areaMassesRef is the cell-by-cell membership loop AppendAreaMasses
// replaced, kept as its oracle: every cell's mass is CDF(i+1) − CDF(i) with
// both edges evaluated afresh, and names are built per cell.
func areaMassesRef(x, y dist.Dist, minMass float64) []areaMass {
	if minMass <= 0 {
		minMass = 0.01
	}
	xCells := axisCellsRef(x)
	yCells := axisCellsRef(y)
	var out []areaMass
	for _, xc := range xCells {
		for _, yc := range yCells {
			p := xc.p * yc.p
			if p >= minMass {
				out = append(out, areaMass{Area: areaName(xc.i, yc.i), P: p})
			}
		}
	}
	return out
}

func axisCellsRef(d dist.Dist) []cellMass {
	mu := d.Mean()
	sd := math.Sqrt(d.Variance())
	lo := int(math.Floor(mu - 3*sd))
	hi := int(math.Floor(mu + 3*sd))
	var out []cellMass
	for i := lo; i <= hi; i++ {
		p := d.CDF(float64(i+1)) - d.CDF(float64(i))
		if p > 1e-6 {
			out = append(out, cellMass{i: i, p: p})
		}
	}
	return out
}

// checkAreaMasses compares AppendAreaMasses against the oracle on the
// scaled axes: same names, same order, same float64 bits.
func checkAreaMasses(t *testing.T, x, y dist.Dist, scale, minMass float64) {
	t.Helper()
	want := areaMassesRef(dist.Scale(x, scale), dist.Scale(y, scale), minMass)
	got := AppendAreaMasses(nil, dist.ValOf(x), dist.ValOf(y), scale, minMass, newAreaMass)
	if len(got) != len(want) {
		t.Fatalf("x=%v y=%v scale=%g min=%g: %d cells, oracle %d", x, y, scale, minMass, len(got), len(want))
	}
	for i := range got {
		if got[i].Area != want[i].Area || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
			t.Fatalf("x=%v y=%v scale=%g min=%g: cell %d = %s %.17g, oracle %s %.17g",
				x, y, scale, minMass, i, got[i].Area, got[i].P, want[i].Area, want[i].P)
		}
	}
}

func TestAppendAreaMassesMatchesOracle(t *testing.T) {
	mix := dist.NewMixture([]float64{0.3, 0.7}, []dist.Dist{dist.NewNormal(12, 2), dist.NewNormal(25, 4)})
	hist := dist.NewHistogram(3, 47, []float64{0.1, 0.2, 0.4, 0.2, 0.1})
	cases := []struct {
		name      string
		x, y      dist.Dist
		scale, mm float64
	}{
		{"normal", dist.NewNormal(41.2, 1.5), dist.NewNormal(17.9, 2.5), 0.1, 0.01},
		{"normal unscaled", dist.NewNormal(3.5, 0.4), dist.NewNormal(9.5, 0.4), 1, 0.01},
		{"mean on cell edge", dist.NewNormal(30, 1), dist.NewNormal(-20, 3), 0.1, 0.001},
		{"integer edges unscaled", dist.NewNormal(4, 0.5), dist.NewNormal(-7, 0.5), 1, 0},
		{"negative cells", dist.NewNormal(-55, 6), dist.NewNormal(-3.3, 9), 0.1, 0.001},
		{"sigma to zero", dist.NewNormal(12.34, 1e-300), dist.NewNormal(20, 0), 0.1, 0.01},
		{"sigma zero on edge", dist.NewNormal(20, 0), dist.NewNormal(-10, 0), 0.1, 0.01},
		{"spills scratch", dist.NewNormal(0, 40), dist.NewNormal(5, 25), 0.1, 1e-5},
		{"spills scratch unscaled", dist.NewNormal(100, 9), dist.NewNormal(-100, 12), 1, 1e-6},
		{"uniform", dist.NewUniform(3, 38), dist.NewUniform(-12, 4), 0.1, 0.001},
		{"point mass", dist.PointMass{V: 42.5}, dist.PointMass{V: -0.1}, 0.1, 0.01},
		{"point mass on edge", dist.PointMass{V: 40}, dist.PointMass{V: 0}, 0.1, 0.01},
		{"mixture", mix, dist.NewNormal(8, 3), 0.1, 0.001},
		{"histogram", hist, hist, 0.1, 0.001},
		{"negative scale", dist.NewNormal(33, 4), dist.NewUniform(1, 9), -0.25, 0.001},
		{"zero scale", dist.NewNormal(33, 4), dist.NewNormal(1, 9), 0, 0.01},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAreaMasses(t, c.x, c.y, c.scale, c.mm)
		})
	}
}

// TestAppendAreaMassesAppends: dst's prefix survives and the result is
// the oracle's cells after it.
func TestAppendAreaMassesAppends(t *testing.T) {
	x, y := dist.NewNormal(41.2, 6), dist.NewNormal(17.9, 6)
	pre := []areaMass{{Area: "keep", P: 0.5}}
	got := AppendAreaMasses(pre, dist.ValOf(x), dist.ValOf(y), 0.1, 0.01, newAreaMass)
	want := areaMassesRef(dist.Scale(x, 0.1), dist.Scale(y, 0.1), 0.01)
	if len(got) != 1+len(want) || got[0] != pre[0] {
		t.Fatalf("got %v, want keep + %v", got, want)
	}
	for i, w := range want {
		if got[1+i] != w {
			t.Fatalf("cell %d = %v, oracle %v", i, got[1+i], w)
		}
	}
}

func TestAppendAreaMassesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// Held by value, as a tuple holds its Normal attributes.
	x, y := dist.ValOf(dist.NewNormal(41.2, 3)), dist.ValOf(dist.NewNormal(17.9, 3))
	AppendAreaMasses(nil, x, y, 0.1, 0.01, newAreaMass) // intern the names
	allocs := testing.AllocsPerRun(100, func() {
		AppendAreaMasses(nil, x, y, 0.1, 0.01, newAreaMass)
	})
	if allocs > 1 {
		t.Errorf("%.1f allocs per call, want the one result slice", allocs)
	}
}

// fuzzLocation builds one axis of a location from fuzz input: kind picks
// the family, a and b its parameters in cell units.
func fuzzLocation(kind uint8, a, b float64) dist.Dist {
	switch kind % 5 {
	case 0:
		return dist.NewNormal(a, math.Abs(b))
	case 1:
		return dist.NewUniform(a, a+math.Abs(b)+1e-9)
	case 2:
		return dist.PointMass{V: a}
	case 3:
		return dist.NewMixture([]float64{0.4, 0.6}, []dist.Dist{dist.NewNormal(a, math.Abs(b)), dist.NewNormal(a+b, 1+math.Abs(b)/2)})
	default:
		return dist.NewHistogram(a, a+math.Abs(b)+1e-9, []float64{0.2, 0.5, 0.3})
	}
}

// FuzzAreaMasses: for any location, scale and threshold the carried-edge
// kernel reproduces the oracle's cells and masses bit for bit.
func FuzzAreaMasses(f *testing.F) {
	f.Add(uint8(0), 41.2, 1.5, uint8(0), 17.9, 2.5, 0.1, 0.01)
	f.Add(uint8(0), 30.0, 0.0, uint8(2), -20.0, 0.0, 0.1, 0.01)
	f.Add(uint8(1), -3.0, 8.0, uint8(3), 12.0, 4.0, 1.0, 0.001)
	f.Add(uint8(4), 5.0, 30.0, uint8(0), 0.0, 40.0, 0.1, 1e-5)
	f.Fuzz(func(t *testing.T, kx uint8, ax, bx float64, ky uint8, ay, by, scale, minMass float64) {
		for _, v := range []float64{ax, bx, ay, by, scale, minMass} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// Keep the scaled location on a floor-sized grid so the scan stays
		// small: |mean| ≤ 1e6 cells, spread ≤ 200 cells.
		if math.Abs(scale) > 10 || math.Abs(ax*scale) > 1e6 || math.Abs(ay*scale) > 1e6 ||
			math.Abs(bx*scale) > 100 || math.Abs(by*scale) > 100 {
			t.Skip()
		}
		checkAreaMasses(t, fuzzLocation(kx, ax, bx), fuzzLocation(ky, ay, by), scale, minMass)
	})
}

// TestAreaNamesConcurrent: shard instances share one membership function,
// so the intern table is hit from many goroutines; run under -race.
func TestAreaNamesConcurrent(t *testing.T) {
	tab := newNameTable(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				xi, yi := (i+g)%40-20, (i*7+g)%30-15
				if got, want := tab.name(xi, yi), fmt.Sprintf("A%d_%d", xi, yi); got != want {
					t.Errorf("name(%d, %d) = %q, want %q", xi, yi, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := tab.len(); n == 0 || n > 40*30 {
		t.Errorf("table holds %d names", n)
	}
}

// TestAreaNamesBounded: past its cap the table stops growing and names
// are still right, including cells outside the int32 key range.
func TestAreaNamesBounded(t *testing.T) {
	const max = 64
	tab := newNameTable(max)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				xi, yi := g*1000+i, -i
				if got, want := tab.name(xi, yi), fmt.Sprintf("A%d_%d", xi, yi); got != want {
					t.Errorf("name(%d, %d) = %q, want %q", xi, yi, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := tab.len(); n != max {
		t.Errorf("table holds %d names, cap %d", n, max)
	}
	for _, c := range [][2]int{{math.MaxInt32 + 1, 0}, {0, math.MinInt32 - 1}, {math.MinInt64, math.MaxInt64}} {
		if got, want := tab.name(c[0], c[1]), fmt.Sprintf("A%d_%d", c[0], c[1]); got != want {
			t.Errorf("name(%d, %d) = %q, want %q", c[0], c[1], got, want)
		}
	}
	if n := tab.len(); n != max {
		t.Errorf("table grew to %d past its cap %d", n, max)
	}
}
