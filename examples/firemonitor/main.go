// Fire-code monitoring (Q1 of §2.1): raw mobile-RFID readings are
// transformed by the T operator into an object-location stream with
// quantified uncertainty, then the declarative query — windowed
// probabilistic GROUP BY area / SUM(weight) / HAVING — is compiled to a
// box-arrow dataflow diagram and fed tuple by tuple, flagging floor cells
// whose total merchandise weight probably violates the fire code.
//
// Run: go run ./examples/firemonitor
package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rfid"
	"repro/internal/stream"
	"repro/internal/uop"
)

func main() {
	// A 300-object warehouse and one mobile reader sweeping it.
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 300, Seed: 42, MoveProb: -1})
	reader := rfid.Reader{}
	trace := rfid.GenerateTrace(w, reader, rfid.TraceConfig{Events: 3000, Seed: 43})
	fmt.Printf("%v, %d scan events\n", w, len(trace.Events))

	// The data capture and transformation operator (§4.1): particle-filter
	// inference over the raw readings, emitting location tuples with pdfs.
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles:        100,
		UseIndex:         true,
		NegativeEvidence: true,
		Seed:             44,
	})
	var locations []rfid.LocationTuple
	for _, ev := range trace.Events {
		locations = append(locations, tx.Process(ev)...)
	}
	fmt.Printf("T operator emitted %d location tuples (reference accuracy %.1f ft)\n",
		len(locations), tx.Accuracy())

	// Q1: 5-second windows, group by floor cell, sum weights, alert when
	// P(total > threshold) is high. Cells are 10x10 ft so a shelf's load
	// lands in one group. The fluent chain compiles to a box-arrow diagram
	// that the stream engine executes.
	cfg := uop.Q1Config{
		WindowMS:     5 * stream.Second,
		ThresholdLbs: 220,
		AreaFt:       10,
		Strategy:     core.CFInvert,
		MinAlertProb: 0.5,
	}
	compiled := uop.BuildQ1(cfg).Compile()
	fmt.Printf("\ncompiled Q1 diagram:\n%s", compiled.Describe())

	tr := uop.Trace{"locations": nil}
	for _, lt := range locations {
		tr["locations"] = append(tr["locations"], uop.LocationUTuple(lt, w))
	}
	alerts := uop.Q1Alerts(compiled.Run(tr, 0))

	fmt.Printf("\n%d fire-code alerts (threshold 220 lbs, P >= 0.5):\n", len(alerts))
	shown := 0
	for _, a := range alerts {
		fmt.Printf("  t=%5.1fs  area %-8s  total=%6.1f lbs ±%4.1f  P(violation)=%.2f\n",
			float64(a.TS)/1000, a.Area, a.Total.Mean(), stdOf(a.Total), a.PViolation)
		shown++
		if shown >= 10 {
			fmt.Printf("  ... and %d more\n", len(alerts)-shown)
			break
		}
	}
}

func stdOf(d interface{ Variance() float64 }) float64 {
	return math.Sqrt(math.Max(d.Variance(), 0))
}
