package uop

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// The tests in this file pin the redesign's acceptance criterion: the
// compiled box-arrow diagrams must produce byte-identical alerts to the
// pre-refactor batch loops, under both synchronous Push and channel-
// parallel execution through Compiled.Run.

// batchQ1 is the pre-refactor hand-rolled batch evaluation of Q1 (the
// window/dedup/group/having loop that used to live in core.RunQ1), kept
// here as the reference semantics.
func batchQ1(lts []rfid.LocationTuple, w *rfid.Warehouse, cfg Q1Config) []Q1Alert {
	cfg = cfg.withDefaults()
	member := q1Member(cfg)

	var alerts []Q1Alert
	var window []*core.UTuple
	var winStart stream.Time
	started := false
	flush := func(end stream.Time) {
		if len(window) == 0 {
			return
		}
		// One contribution per object per window: latest tuple per tag wins.
		latest := make(map[int64]*core.UTuple, len(window))
		for _, u := range window {
			tag := u.Key("tag")
			if cur, ok := latest[tag]; !ok || u.TS >= cur.TS {
				latest[tag] = u
			}
		}
		dedup := make([]*core.UTuple, 0, len(latest))
		for _, u := range window { // preserve arrival order for determinism
			if latest[u.Key("tag")] == u {
				dedup = append(dedup, u)
			}
		}
		results := core.GroupSum(dedup, "weight", member, cfg.Strategy, cfg.Agg)
		for _, h := range core.HavingGreater(results, cfg.ThresholdLbs, cfg.MinAlertProb) {
			alerts = append(alerts, Q1Alert{TS: end, Area: h.Group, Total: h.Dist, PViolation: h.PAbove})
		}
		window = window[:0]
	}
	for _, lt := range lts {
		if !started {
			started = true
			winStart = lt.T
		}
		for lt.T >= winStart+cfg.WindowMS {
			flush(winStart + cfg.WindowMS)
			winStart += cfg.WindowMS
		}
		window = append(window, LocationUTuple(lt, w))
	}
	if started {
		flush(winStart + cfg.WindowMS)
	}
	return alerts
}

// batchQ2 is the pre-refactor nested-loop window join of Q2.
func batchQ2(lts []rfid.LocationTuple, temps []TempReading, w *rfid.Warehouse, cfg Q2Config) []Q2Alert {
	cfg = cfg.withDefaults()
	var flam []*core.UTuple
	for _, lt := range lts {
		if w.ObjectType(lt.TagID) != "flammable" {
			continue
		}
		flam = append(flam, LocationUTuple(lt, w))
	}
	var hot []*core.UTuple
	for _, tr := range temps {
		u := TempUTuple(tr)
		if sel := core.SelectGreater(u, "temp", cfg.TempThreshold, cfg.MinProb); sel != nil {
			hot = append(hot, sel)
		}
	}
	sort.SliceStable(flam, func(i, j int) bool { return flam[i].TS < flam[j].TS })
	sort.SliceStable(hot, func(i, j int) bool { return hot[i].TS < hot[j].TS })

	var alerts []Q2Alert
	j0 := 0
	for _, f := range flam {
		for j0 < len(hot) && hot[j0].TS < f.TS-cfg.RangeMS {
			j0++
		}
		for j := j0; j < len(hot) && hot[j].TS <= f.TS+cfg.RangeMS; j++ {
			res := core.JoinProb(f, hot[j], []string{"x", "y"}, cfg.LocTolFt, cfg.MinProb)
			if res == nil {
				continue
			}
			alerts = append(alerts, Q2Alert{
				TS:    res.TS,
				TagID: f.Key("tag"),
				P:     res.Exist,
				Temp:  hot[j].Attr("temp"),
				X:     f.Attr("x"),
				Y:     f.Attr("y"),
			})
		}
	}
	sortQ2Alerts(alerts)
	return alerts
}

// formatQ1 renders alerts at full float precision so equality is
// byte-identical, not approximately close.
func formatQ1(as []Q1Alert) string {
	var b strings.Builder
	for _, a := range as {
		fmt.Fprintf(&b, "%d|%s|%.17g|%.17g|%.17g\n",
			a.TS, a.Area, a.Total.Mean(), a.Total.Variance(), a.PViolation)
	}
	return b.String()
}

func formatQ2(as []Q2Alert) string {
	var b strings.Builder
	for _, a := range as {
		fmt.Fprintf(&b, "%d|%d|%.17g|%.17g|%.17g|%.17g|%.17g\n",
			a.TS, a.TagID, a.P, a.Temp.Mean(), a.Temp.Variance(), a.X.Mean(), a.Y.Mean())
	}
	return b.String()
}

// seededTrace runs the real RFID T operator on a seeded trace so the
// equivalence inputs carry realistic posteriors (Gaussians, and mixtures
// when objects move).
func seededTrace(t testing.TB, objects, events int, flamFrac float64) ([]rfid.LocationTuple, *rfid.Warehouse) {
	t.Helper()
	w := rfid.NewWarehouse(rfid.WarehouseConfig{
		NumObjects: objects, Seed: 31, FlammableFrac: flamFrac, MoveProb: -1,
	})
	trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: events, Seed: 32})
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: 50, UseIndex: true, NegativeEvidence: true, Seed: 33,
	})
	var lts []rfid.LocationTuple
	for _, ev := range trace.Events {
		lts = append(lts, tx.Process(ev)...)
	}
	if len(lts) == 0 {
		t.Fatal("T operator emitted no location tuples")
	}
	return lts, w
}

func TestQ1GraphMatchesBatchReference(t *testing.T) {
	lts, w := seededTrace(t, 60, 400, 0)
	cfg := Q1Config{
		WindowMS:     5 * stream.Second,
		ThresholdLbs: 120,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.3,
	}
	ref := formatQ1(batchQ1(lts, w, cfg))
	if ref == "" {
		t.Fatal("reference produced no alerts; test inputs too light")
	}
	if got := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0))); got != ref {
		t.Errorf("Push-path Q1 diverges from batch reference:\nref:\n%s\ngot:\n%s", ref, got)
	}
	for _, buffer := range []int{1, 64} {
		if got := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, buffer))); got != ref {
			t.Errorf("Run(buffer=%d) Q1 diverges from batch reference:\nref:\n%s\ngot:\n%s",
				buffer, ref, got)
		}
	}
}

func TestQ2GraphMatchesBatchReference(t *testing.T) {
	lts, w := seededTrace(t, 50, 300, 0.4)
	// A hot spot near one flammable object plus ambient readings.
	var hotSpot *rfid.Object
	for _, o := range w.Objects {
		if o.Type == "flammable" {
			hotSpot = o
			break
		}
	}
	if hotSpot == nil {
		t.Fatal("no flammable object")
	}
	var temps []TempReading
	for ts := stream.Time(0); ts < 40*stream.Second; ts += 2 * stream.Second {
		temps = append(temps,
			TempReading{TS: ts, X: hotSpot.Pos.X, Y: hotSpot.Pos.Y, Temp: dist.NewNormal(78, 5)},
			TempReading{TS: ts, X: hotSpot.Pos.X + 12, Y: hotSpot.Pos.Y, Temp: dist.NewNormal(24, 3)},
		)
	}
	cfg := Q2Config{RangeMS: 3 * stream.Second, TempThreshold: 60, LocTolFt: 6, MinProb: 0.05}
	ref := formatQ2(batchQ2(lts, temps, w, cfg))
	if ref == "" {
		t.Fatal("reference produced no alerts; test inputs too light")
	}
	if got := formatQ2(Q2Alerts(runTrace(BuildQ2(w, cfg), lts, temps, w, 0))); got != ref {
		t.Errorf("Push-path Q2 diverges from batch reference:\nref:\n%s\ngot:\n%s", ref, got)
	}
	for _, buffer := range []int{1, 64} {
		if got := formatQ2(Q2Alerts(runTrace(BuildQ2(w, cfg), lts, temps, w, buffer))); got != ref {
			t.Errorf("Run(buffer=%d) Q2 diverges from batch reference:\nref:\n%s\ngot:\n%s",
				buffer, ref, got)
		}
	}
}
