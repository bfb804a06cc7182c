package rfid

import (
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/dist"
)

// areaName names a floor cell "A<x>_<y>", without fmt — the area()
// function of Q1 ("the square foot area that each object belongs to,
// computed by a function on its (x,y,z) location").
func areaName(xi, yi int) string {
	var buf [2 * strconv.IntSize]byte
	b := append(buf[:0], 'A')
	b = strconv.AppendInt(b, int64(xi), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(yi), 10)
	return string(b)
}

// areaNameCap bounds the interned cell names: a floor has far fewer cells
// than this, and past it names are built per call, so a stream of hostile
// coordinates cannot grow the table.
const areaNameCap = 1 << 16

// areaNames interns the names AppendAreaMasses hands out, one string per
// cell for the life of the process.
var areaNames = newNameTable(areaNameCap)

// nameTable interns areaName strings keyed by cell. It is safe for
// concurrent use (shard instances share one membership function) and holds
// at most max names.
type nameTable struct {
	mu  sync.RWMutex
	m   map[uint64]string
	max int
}

func newNameTable(max int) *nameTable {
	return &nameTable{m: make(map[uint64]string), max: max}
}

// name returns areaName(xi, yi), interned while the table has room.
func (t *nameTable) name(xi, yi int) string {
	if xi != int(int32(xi)) || yi != int(int32(yi)) {
		return areaName(xi, yi)
	}
	k := uint64(uint32(xi))<<32 | uint64(uint32(yi))
	t.mu.RLock()
	s, ok := t.m[k]
	full := len(t.m) >= t.max
	t.mu.RUnlock()
	if ok {
		return s
	}
	s = areaName(xi, yi)
	if full {
		return s
	}
	t.mu.Lock()
	if old, ok := t.m[k]; ok {
		s = old
	} else if len(t.m) < t.max {
		t.m[k] = s
	}
	t.mu.Unlock()
	return s
}

// len reports how many names the table holds.
func (t *nameTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// cellScratch is how many cells per axis AppendAreaMasses keeps on the
// stack; a location spread wider spills to the heap.
const cellScratch = 16

// AppendAreaMasses enumerates the floor cells the uncertain location
// (x·scale, y·scale) intersects (within ±3σ) with the probability mass of
// each: P(cell) = (F_x(x1)−F_x(x0)) × (F_y(y1)−F_y(y0)) under the
// (axis-independent) location distribution. Cells below minMass (default
// 0.01) are dropped. Each surviving cell is appended to dst as mk(name, P),
// x-major, and dst grows at most once.
//
// The scaled axes are dist.Scale(x, scale) and dist.Scale(y, scale); axes
// held by value (Normals, point masses) are scaled by value rather than
// boxed, and each cell edge's CDF is evaluated once and carried to the next
// cell, so the masses are the same float64s the cell-by-cell difference
// gives.
func AppendAreaMasses[M any](dst []M, x, y dist.Val, scale, minMass float64, mk func(area string, p float64) M) []M {
	if minMass <= 0 {
		minMass = 0.01
	}
	var xbuf, ybuf [cellScratch]cellMass
	xs := axisCells(xbuf[:0], x, scale)
	ys := axisCells(ybuf[:0], y, scale)
	n := 0
	for _, xc := range xs {
		for _, yc := range ys {
			if xc.p*yc.p >= minMass {
				n++
			}
		}
	}
	dst = slices.Grow(dst, n)
	for _, xc := range xs {
		for _, yc := range ys {
			if p := xc.p * yc.p; p >= minMass {
				dst = append(dst, mk(areaNames.name(xc.i, yc.i), p))
			}
		}
	}
	return dst
}

type cellMass struct {
	i int
	p float64
}

// axisCells appends the cells of one axis of dist.Scale(d, scale) holding
// more than 1e-6 of its mass.
func axisCells(dst []cellMass, v dist.Val, scale float64) []cellMass {
	switch {
	case v.D != nil:
		d := dist.Scale(v.D, scale)
		return appendCells(dst, d.Mean(), math.Sqrt(d.Variance()), d.CDF)
	case v.Sigma > 0 && scale != 0:
		n := dist.Normal{Mu: v.Mu, Sigma: v.Sigma}.ScaleShift(scale, 0)
		return appendCells(dst, n.Mean(), math.Sqrt(n.Variance()), n.CDF)
	}
	// A point mass, or a Normal scaled by 0: dist.Scale's point mass.
	pm := dist.PointMass{V: v.Mu}
	if scale == 0 {
		pm.V = 0
	} else if scale != 1 {
		pm.V *= scale
	}
	return appendCells(dst, pm.Mean(), math.Sqrt(pm.Variance()), pm.CDF)
}

func appendCells(dst []cellMass, mu, sd float64, cdf func(float64) float64) []cellMass {
	lo := int(math.Floor(mu - 3*sd))
	hi := int(math.Floor(mu + 3*sd))
	edge := cdf(float64(lo))
	for i := lo; i <= hi; i++ {
		next := cdf(float64(i + 1))
		if p := next - edge; p > 1e-6 {
			dst = append(dst, cellMass{i: i, p: p})
		}
		edge = next
	}
	return dst
}

// Weight returns the registered weight (pounds) for a tag — Q1's
// weight(tag_id) lookup function against the object registry.
func (w *Warehouse) Weight(tagID int64) float64 {
	if o := w.ObjectByID(tagID); o != nil {
		return o.Weight
	}
	return 0
}

// ObjectType returns the registered type for a tag — Q2's
// object_type(tag_id).
func (w *Warehouse) ObjectType(tagID int64) string {
	if o := w.ObjectByID(tagID); o != nil {
		return o.Type
	}
	return "unknown"
}
