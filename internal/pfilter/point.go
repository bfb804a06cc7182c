// Package pfilter implements the sampling-based inference engine of §4.1:
// sequential importance resampling (particle filtering) with the paper's
// three scalability optimizations — factorization (independent per-object
// particle sets instead of one joint state), spatial indexing (only objects
// near the reader are touched per event), and particle compression (objects
// whose particles have stabilized run with fewer particles) — plus the
// feedback controller of §4.2 that sizes particle counts against an
// accuracy requirement measured on reference objects.
package pfilter

import "math"

// Point is a 2-D location (the paper's Figure 3 reports inference error in
// the XY plane; the third coordinate in the RFID tuples comes from shelf
// geometry downstream).
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Cov2 is a 2x2 symmetric covariance (XX, YY, XY).
type Cov2 struct {
	XX, YY, XY float64
}

// SpreadRadius returns the RMS radius sqrt(trace) — the particle-cloud size
// used by the compression trigger.
func (c Cov2) SpreadRadius() float64 {
	return math.Sqrt(math.Max(c.XX+c.YY, 0))
}
