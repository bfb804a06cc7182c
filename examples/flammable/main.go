// Flammable-object alerting (Q2 of §2.1): join the uncertain object-location
// stream with an uncertain temperature stream. An alert fires when a
// flammable object is probably co-located with a probably-hot reading; the
// alert carries its probability rather than a silent guess.
//
// Run: go run ./examples/flammable
package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/uop"
)

func main() {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{
		NumObjects:    200,
		Seed:          7,
		FlammableFrac: 0.15,
		MoveProb:      -1,
	})
	reader := rfid.Reader{}
	trace := rfid.GenerateTrace(w, reader, rfid.TraceConfig{Events: 2500, Seed: 8})

	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: 100, UseIndex: true, NegativeEvidence: true, Seed: 9,
	})
	var locations []rfid.LocationTuple
	for _, ev := range trace.Events {
		locations = append(locations, tx.Process(ev)...)
	}

	// Synthetic temperature stream: sensors on a grid report cool ambient
	// readings, except a hot spot near one flammable object.
	var hotSpot *rfid.Object
	for _, o := range w.Objects {
		if o.Type == "flammable" {
			hotSpot = o
			break
		}
	}
	g := rng.New(10)
	var temps []uop.TempReading
	for t := stream.Time(0); t < 1500*stream.Second; t += 5 * stream.Second {
		for gx := 5.0; gx < w.Width; gx += 15 {
			for gy := 5.0; gy < w.Depth; gy += 15 {
				mean := 22.0
				dx, dy := gx-hotSpot.Pos.X, gy-hotSpot.Pos.Y
				if dx*dx+dy*dy < 100 {
					mean = 75 // fire near the hot spot
				}
				temps = append(temps, uop.TempReading{
					TS: t, X: gx, Y: gy,
					Temp: dist.NewNormal(mean+g.Normal(0, 1), 4),
				})
			}
		}
	}
	fmt.Printf("%d location tuples, %d temperature readings\n", len(locations), len(temps))
	fmt.Printf("hot spot planted at (%.0f, %.0f) near flammable tag %d\n",
		hotSpot.Pos.X, hotSpot.Pos.Y, hotSpot.ID)

	// The query compiles to a two-source diagram (certain flammability
	// filter ⋈ uncertain hot filter) and runs shard-parallel on the channel
	// executor: both filter stages replicate round-robin and the join runs
	// as one instance per CPU (port 0 round-robin, port 1 broadcast), with
	// one goroutine per box.
	cfg := uop.Q2Config{
		RangeMS:       3 * stream.Second,
		TempThreshold: 60,
		LocTolFt:      6,
		MinProb:       0.10,
		Shards:        runtime.NumCPU(),
	}
	compiled := uop.BuildQ2(w, cfg).Compile()
	fmt.Printf("\ncompiled Q2 diagram (%d shards):\n%s", cfg.Shards, compiled.Describe())
	tr := uop.Trace{}
	for _, lt := range locations {
		tr["locations"] = append(tr["locations"], uop.LocationUTuple(lt, w))
	}
	for _, r := range temps {
		tr["temps"] = append(tr["temps"], uop.TempUTuple(r))
	}
	alerts := uop.Q2Alerts(compiled.Run(tr, 64))

	// Per-box traffic, shard instances included — the counters are atomics,
	// so they are also readable while the graph is running.
	fmt.Println("\nper-box stats (in -> out):")
	for _, b := range compiled.Graph.Boxes() {
		st := b.Stats()
		pad := strings.Repeat(" ", max(1, 34-len([]rune(b.Op.Name()))))
		fmt.Printf("  %s%s%7d -> %7d\n", b.Op.Name(), pad, st.In, st.Out)
	}

	// Aggregate alerts per tag (the same pair can match in many windows).
	best := map[int64]uop.Q2Alert{}
	for _, a := range alerts {
		if cur, ok := best[a.TagID]; !ok || a.P > cur.P {
			best[a.TagID] = a
		}
	}
	fmt.Printf("\n%d alert tuples over %d distinct tags:\n", len(alerts), len(best))
	for tag, a := range best {
		ci := dist.ConfidenceInterval(a.Temp, 0.9)
		fmt.Printf("  tag %4d  P(alert)=%.2f  temp|temp>60 in [%.0f, %.0f] ℃  loc≈(%.1f, %.1f)\n",
			tag, a.P, ci.Lo, ci.Hi, a.X.Mean(), a.Y.Mean())
	}
	if _, ok := best[hotSpot.ID]; ok {
		fmt.Println("\nplanted hot flammable object correctly alerted")
	} else {
		fmt.Println("\nWARNING: planted object not alerted (inference missed it)")
	}
}
