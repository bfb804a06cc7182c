package pfilter

import (
	"repro/internal/rng"
)

// ScanEvent is one reader observation event: the reader position and the set
// of object IDs it returned in this read cycle.
type ScanEvent struct {
	Reader   Point
	Observed []int64
	// DT is the elapsed time since the previous event (drives dynamics).
	DT float64
}

// DetectModel gives the probability that a reader at r detects an object at
// p — the sensing model (logistic in distance/angle in the RFID substrate).
type DetectModel func(objPos, readerPos Point) float64

// Config tunes the factorized filter.
type Config struct {
	// Particles is the per-object particle count (Figure 3: 50/100/200).
	Particles int
	// ReaderRange bounds the detection radius used by the spatial index:
	// beyond it the detection probability is treated as zero.
	ReaderRange float64
	// Compression enables §4.1 particle compression with the given options;
	// zero threshold disables it.
	Compression CompressOptions
	// UseIndex toggles the spatial index (on for production; the ablation
	// bench turns it off to quantify its contribution).
	UseIndex bool
	// NegativeEvidence applies miss-updates to unobserved candidates in
	// reader range (full model; disabling approximates faster variants).
	NegativeEvidence bool
	// Roughening is the post-resample jitter coefficient applied to every
	// object filter (see ObjectFilter.Roughening); zero disables.
	Roughening float64
	// DisableInjection turns off proposal-from-observation re-seeding.
	// By default, when a positive read's marginal likelihood under the
	// current belief is negligible (no particle near the reader — the
	// particle-starvation regime of sparse priors over large floors), the
	// filter re-seeds the particle cloud inside the reader's range and
	// re-applies the update. This is the standard practical remedy for
	// likelihood/prior support mismatch.
	DisableInjection bool
}

// Factorized is the optimized filter of §4.1: one small particle set per
// object ("breaks a large particle over all hidden variables into smaller
// particles over individual hidden variables"), a spatial grid limiting
// per-event work to objects near the reader, and optional compression.
type Factorized struct {
	cfg     Config
	detect  DetectModel
	dyn     Dynamics
	filters map[int64]*ObjectFilter
	grid    *Grid
	g       *rng.RNG

	queryBuf []int64
}

// NewFactorized creates the filter. prior seeds unknown objects' particles
// on first sight.
func NewFactorized(cfg Config, detect DetectModel, dyn Dynamics, g *rng.RNG) *Factorized {
	if cfg.Particles <= 0 {
		cfg.Particles = 100
	}
	if cfg.ReaderRange <= 0 {
		cfg.ReaderRange = 20
	}
	f := &Factorized{
		cfg:     cfg,
		detect:  detect,
		dyn:     dyn,
		filters: make(map[int64]*ObjectFilter),
		g:       g,
	}
	if cfg.UseIndex {
		f.grid = NewGrid(cfg.ReaderRange)
	}
	return f
}

// Track registers an object with a prior particle cloud.
func (f *Factorized) Track(id int64, prior func(g *rng.RNG) Point) {
	of := NewObjectFilter(f.cfg.Particles, prior, f.g)
	of.Roughening = f.cfg.Roughening
	f.filters[id] = of
	if f.grid != nil {
		f.grid.Update(id, of.Mean())
	}
}

// NumObjects returns the number of tracked objects.
func (f *Factorized) NumObjects() int { return len(f.filters) }

// Filter exposes the per-object filter (read-only usage expected).
func (f *Factorized) Filter(id int64) *ObjectFilter { return f.filters[id] }

// Estimate returns the current posterior mean for an object.
func (f *Factorized) Estimate(id int64) (Point, bool) {
	of, ok := f.filters[id]
	if !ok {
		return Point{}, false
	}
	return of.Mean(), true
}

// Process applies one scan event: dynamics + positive updates for observed
// objects + (optionally) negative updates for in-range unobserved
// candidates. Returns the number of object filters touched — the quantity
// the spatial index keeps far below the total object count.
func (f *Factorized) Process(ev ScanEvent) int {
	touched := 0
	// Candidate set: all objects without an index, in-range objects with.
	var candidates []int64
	if f.grid != nil {
		f.queryBuf = f.queryBuf[:0]
		// Pad the radius: particles spread beyond the indexed mean.
		candidates = f.grid.Query(ev.Reader, f.cfg.ReaderRange*1.5, f.queryBuf)
		// Observed objects must be updated even if the index thinks they
		// are far away (their belief may be stale/wrong).
		seen := make(map[int64]bool, len(candidates))
		for _, id := range candidates {
			seen[id] = true
		}
		for _, id := range ev.Observed {
			if !seen[id] {
				if _, tracked := f.filters[id]; tracked {
					candidates = append(candidates, id)
				}
			}
		}
	} else {
		candidates = make([]int64, 0, len(f.filters))
		for id := range f.filters {
			candidates = append(candidates, id)
		}
	}
	observed := make(map[int64]bool, len(ev.Observed))
	for _, id := range ev.Observed {
		observed[id] = true
	}

	for _, id := range candidates {
		of := f.filters[id]
		if of == nil {
			continue
		}
		touched++
		if ev.DT > 0 {
			of.Predict(f.dyn, ev.DT, f.g)
		}
		if observed[id] {
			// A positive read of a compressed object whose belief
			// contradicts the reader position must re-expand first.
			if of.Compressed() {
				if f.detect(of.Mean(), ev.Reader) < 1e-6 {
					of.ForceExpand(f.cfg.Compression, f.g)
				}
			}
			lik := func(p Point) float64 { return f.detect(p, ev.Reader) }
			norm := of.Update(lik, f.g)
			if !f.cfg.DisableInjection && norm < 2e-3 {
				// Belief has ~no support where the read happened: re-seed
				// uniformly inside the reader's disc and re-condition.
				r := f.cfg.ReaderRange
				for i := range of.Pts {
					for {
						x := f.g.Uniform(-r, r)
						y := f.g.Uniform(-r, r)
						if x*x+y*y <= r*r {
							of.Pts[i] = Point{X: ev.Reader.X + x, Y: ev.Reader.Y + y}
							break
						}
					}
					of.Ws[i] = 1 / float64(len(of.Ws))
				}
				of.Update(lik, f.g)
			}
		} else if f.cfg.NegativeEvidence {
			of.Update(func(p Point) float64 {
				return 1 - f.detect(p, ev.Reader)
			}, f.g)
		}
		if f.cfg.Compression.SpreadThreshold > 0 {
			if !of.MaybeCompress(f.cfg.Compression, f.g) {
				of.MaybeExpand(f.cfg.Compression, f.g)
			}
		}
		if f.grid != nil {
			f.grid.Update(id, of.Mean())
		}
	}
	return touched
}
