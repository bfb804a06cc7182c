package uop

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// TestQ1StrategyConsistency runs the same Q1 workload under the exact and
// approximate aggregation strategies: the alert sets must coincide and the
// violation probabilities must be close — the Table 2 claim ("CF approx is
// nearly exact") carried through an end-to-end query.
func TestQ1StrategyConsistency(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 80, Seed: 31})
	var lts []rfid.LocationTuple
	for i, o := range w.Objects {
		lts = append(lts, rfid.LocationTuple{
			T:     stream.Time(i * 50),
			TagID: o.ID,
			X:     dist.NewNormal(o.Pos.X, 1.0),
			Y:     dist.NewNormal(o.Pos.Y, 1.0),
			Z:     dist.PointMass{V: o.Z},
		})
	}
	run := func(strat core.Strategy) map[string]float64 {
		out := map[string]float64{}
		for _, a := range Q1Alerts(runTrace(BuildQ1(Q1Config{
			WindowMS:     60 * stream.Second,
			ThresholdLbs: 120,
			AreaFt:       10,
			Strategy:     strat,
			MinAlertProb: 0.3,
		}), lts, nil, w, 0)) {
			out[a.Area] = a.PViolation
		}
		return out
	}
	exact := run(core.CFInvert)
	approx := run(core.CFApprox)
	if len(exact) == 0 {
		t.Fatal("no alerts in exact run")
	}
	if len(exact) != len(approx) {
		t.Fatalf("alert sets differ: exact %d areas, approx %d", len(exact), len(approx))
	}
	for area, p := range exact {
		q, ok := approx[area]
		if !ok {
			t.Errorf("area %s alerted only under exact strategy", area)
			continue
		}
		if math.Abs(p-q) > 0.05 {
			t.Errorf("area %s: exact P=%.3f vs approx P=%.3f", area, p, q)
		}
	}
}

// TestQ2ToleranceMonotonicity: widening loc_equals tolerance can only grow
// the alert set and each alert's probability.
func TestQ2ToleranceMonotonicity(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 50, Seed: 32, FlammableFrac: 1})
	o := w.ObjectByID(5)
	lts := []rfid.LocationTuple{{
		T: 0, TagID: 5,
		X: dist.NewNormal(o.Pos.X, 1), Y: dist.NewNormal(o.Pos.Y, 1), Z: dist.PointMass{V: 0},
	}}
	temps := []TempReading{{TS: 0, X: o.Pos.X + 2, Y: o.Pos.Y, Temp: dist.NewNormal(85, 3)}}
	var prev float64
	for _, tol := range []float64{1, 3, 6, 12} {
		alerts := Q2Alerts(runTrace(BuildQ2(w, Q2Config{LocTolFt: tol, MinProb: 0.0001}), lts, temps, w, 0))
		var p float64
		if len(alerts) > 0 {
			p = alerts[0].P
		}
		if p < prev-1e-9 {
			t.Errorf("alert probability fell from %g to %g as tolerance grew to %g", prev, p, tol)
		}
		prev = p
	}
	if prev < 0.5 {
		t.Errorf("at tol=12 the co-location should be near-certain, got %g", prev)
	}
}
