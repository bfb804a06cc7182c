package uop

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// syntheticLocations builds location tuples with tight distributions so the
// expected query answers are predictable.
func syntheticLocations(w *rfid.Warehouse, n int, sd float64) []rfid.LocationTuple {
	var out []rfid.LocationTuple
	for i := 0; i < n; i++ {
		o := w.Objects[i%len(w.Objects)]
		out = append(out, rfid.LocationTuple{
			T:     stream.Time(i * 100),
			TagID: o.ID,
			X:     dist.NewNormal(o.Pos.X, sd),
			Y:     dist.NewNormal(o.Pos.Y, sd),
			Z:     dist.NewNormal(o.Z, 0.5),
		})
	}
	return out
}

// runTrace compiles q and runs it through Compiled.Run over the trace of lts
// (source "locations") and temps (source "temps", when non-nil); buffer 0
// selects the Push executor.
func runTrace(q *Query, lts []rfid.LocationTuple, temps []TempReading, w *rfid.Warehouse, buffer int) []*stream.Tuple {
	tr := Trace{"locations": nil}
	for _, lt := range lts {
		tr["locations"] = append(tr["locations"], LocationUTuple(lt, w))
	}
	for _, r := range temps {
		tr["temps"] = append(tr["temps"], TempUTuple(r))
	}
	return q.Compile().Run(tr, buffer)
}

func TestRunQ1DetectsOverweightArea(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 60, Seed: 21})
	// Tight locations: ~6 objects per shelf at ~5-50 lbs each. With a
	// 10 ft area cell each shelf cell carries its objects' total weight.
	lts := syntheticLocations(w, 60, 0.2)
	alerts := Q1Alerts(runTrace(BuildQ1(Q1Config{
		WindowMS:     10 * stream.Second,
		ThresholdLbs: 100,
		AreaFt:       10,
		Strategy:     core.CFInvert,
		MinAlertProb: 0.5,
	}), lts, nil, w, 0))
	if len(alerts) == 0 {
		t.Fatal("no Q1 alerts for clearly overweight areas")
	}
	for _, a := range alerts {
		if a.PViolation < 0.5 || a.PViolation > 1 {
			t.Errorf("alert confidence %g out of range", a.PViolation)
		}
		if a.Total.Mean() < 50 {
			t.Errorf("alerted area with small mean total %g", a.Total.Mean())
		}
	}
}

func TestRunQ1NoFalseAlertsWhenLight(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 20, Seed: 22})
	lts := syntheticLocations(w, 20, 0.2)
	// Threshold far above any cell total (20 objects ≤ 50 lbs each over
	// many cells).
	alerts := Q1Alerts(runTrace(BuildQ1(Q1Config{
		WindowMS:     10 * stream.Second,
		ThresholdLbs: 5000,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.3,
	}), lts, nil, w, 0))
	if len(alerts) != 0 {
		t.Errorf("unexpected alerts: %v", alerts)
	}
}

func TestRunQ1UncertainLocationSoftensAlerts(t *testing.T) {
	// With very uncertain locations, membership spreads over many cells and
	// violation confidence drops — the paper's core point: the system knows
	// when its answers are unreliable.
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 30, Seed: 23})
	tight := Q1Alerts(runTrace(BuildQ1(Q1Config{
		WindowMS: 10 * stream.Second, ThresholdLbs: 60, AreaFt: 10,
		Strategy: core.CFInvert, MinAlertProb: 0.05, MinAreaMass: 0.001,
	}), syntheticLocations(w, 30, 0.2), nil, w, 0))
	loose := Q1Alerts(runTrace(BuildQ1(Q1Config{
		WindowMS: 10 * stream.Second, ThresholdLbs: 60, AreaFt: 10,
		Strategy: core.CFInvert, MinAlertProb: 0.05, MinAreaMass: 0.001,
	}), syntheticLocations(w, 30, 8), nil, w, 0))
	maxP := func(as []Q1Alert) float64 {
		var m float64
		for _, a := range as {
			if a.PViolation > m {
				m = a.PViolation
			}
		}
		return m
	}
	if len(tight) == 0 {
		t.Fatal("tight run produced no alerts")
	}
	if maxP(loose) >= maxP(tight) {
		t.Errorf("location uncertainty should soften alert confidence: tight %g, loose %g",
			maxP(tight), maxP(loose))
	}
}

func TestRunQ2AlertsOnHotFlammable(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 100, Seed: 24, FlammableFrac: 0.3})
	var flamID int64 = -1
	for _, o := range w.Objects {
		if o.Type == "flammable" {
			flamID = o.ID
			break
		}
	}
	if flamID < 0 {
		t.Skip("no flammable object generated")
	}
	o := w.ObjectByID(flamID)
	lts := []rfid.LocationTuple{{
		T: 1000, TagID: flamID,
		X: dist.NewNormal(o.Pos.X, 0.5),
		Y: dist.NewNormal(o.Pos.Y, 0.5),
		Z: dist.NewNormal(o.Z, 0.5),
	}}
	temps := []TempReading{
		// Hot reading at the object's location.
		{TS: 1500, X: o.Pos.X, Y: o.Pos.Y, Temp: dist.NewNormal(80, 5)},
		// Cool reading nearby: must not alert.
		{TS: 1500, X: o.Pos.X + 1, Y: o.Pos.Y, Temp: dist.NewNormal(20, 5)},
		// Hot reading far away: must not alert.
		{TS: 1500, X: o.Pos.X + 500, Y: o.Pos.Y, Temp: dist.NewNormal(90, 5)},
	}
	alerts := Q2Alerts(runTrace(BuildQ2(w, Q2Config{LocTolFt: 3, MinProb: 0.05}), lts, temps, w, 0))
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.TagID != flamID {
		t.Errorf("alert tag = %d", a.TagID)
	}
	if a.P < 0.3 || a.P > 1 {
		t.Errorf("alert probability = %g", a.P)
	}
	// The reported temperature is the conditional (>60) distribution.
	if a.Temp.Mean() <= 60 {
		t.Errorf("conditional temp mean = %g", a.Temp.Mean())
	}
}

func TestRunQ2IgnoresNonFlammable(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 50, Seed: 25, FlammableFrac: 0.1})
	var solidID int64 = -1
	for _, o := range w.Objects {
		if o.Type == "solid" {
			solidID = o.ID
			break
		}
	}
	o := w.ObjectByID(solidID)
	lts := []rfid.LocationTuple{{
		T: 0, TagID: solidID,
		X: dist.NewNormal(o.Pos.X, 0.5), Y: dist.NewNormal(o.Pos.Y, 0.5), Z: dist.PointMass{V: 0},
	}}
	temps := []TempReading{{TS: 0, X: o.Pos.X, Y: o.Pos.Y, Temp: dist.NewNormal(90, 2)}}
	if alerts := Q2Alerts(runTrace(BuildQ2(w, Q2Config{}), lts, temps, w, 0)); len(alerts) != 0 {
		t.Errorf("solid object alerted: %v", alerts)
	}
}

func TestRunQ2WindowExcludesStaleReadings(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 50, Seed: 26, FlammableFrac: 1})
	o := w.ObjectByID(1)
	lts := []rfid.LocationTuple{{
		T: 100 * stream.Second, TagID: 1,
		X: dist.NewNormal(o.Pos.X, 0.5), Y: dist.NewNormal(o.Pos.Y, 0.5), Z: dist.PointMass{V: 0},
	}}
	temps := []TempReading{{TS: 0, X: o.Pos.X, Y: o.Pos.Y, Temp: dist.NewNormal(90, 2)}}
	// Reading is 100 s older than the location tuple; a 3 s window must
	// exclude it.
	if alerts := Q2Alerts(runTrace(BuildQ2(w, Q2Config{RangeMS: 3 * stream.Second}), lts, temps, w, 0)); len(alerts) != 0 {
		t.Errorf("stale reading joined: %v", alerts)
	}
}

func TestLocationUTupleCarriesWeightAndTag(t *testing.T) {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 10, Seed: 27})
	lt := rfid.LocationTuple{T: 5, TagID: 3,
		X: dist.NewNormal(1, 1), Y: dist.NewNormal(2, 1), Z: dist.PointMass{V: 0}}
	u := LocationUTuple(lt, w)
	if u.Mean("weight") != w.Weight(3) {
		t.Error("weight lookup wrong")
	}
	// The tag id is a typed certain key, not a float64 attribute.
	if u.Key("tag") != 3 {
		t.Error("tag key wrong")
	}
	if u.HasAttr("tag") {
		t.Error("tag must not round-trip through a float64 attribute")
	}
	if math.Abs(u.Mean("x")-1) > 1e-12 {
		t.Error("x attr wrong")
	}
}
