package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
	"repro/internal/uop"
)

// QueriesConfig parameterizes the compiled-query execution comparison: the
// §2.1 reference queries run as box-arrow diagrams under the synchronous
// Push path and the per-box-goroutine channel executor.
type QueriesConfig struct {
	// Objects / Events size the RFID substrate.
	Objects, Events int
	// Particles per object for the T operator.
	Particles int
	// Buffer is the channel executor's per-box input buffer (batches); it
	// must be positive, since Compiled.Run reads 0 as the Push executor.
	Buffer int
	// Shards sizes the shard-parallel arm (0 = one per CPU).
	Shards int
	Seed   int64
}

// DefaultQueriesConfig sizes the workload for an interactive run.
func DefaultQueriesConfig() QueriesConfig {
	return QueriesConfig{Objects: 150, Events: 1500, Particles: 50, Buffer: 128, Seed: 61}
}

// QueriesRow is one (query, execution mode) measurement.
type QueriesRow struct {
	Query  string
	Mode   string
	Alerts int
	// InputTuples counts source tuples pushed through the diagram.
	InputTuples int
	WallMS      float64
	TuplesPerS  float64
}

// RunQueries compiles Q1 and Q2 and executes each under both engine paths
// on the same seeded trace, reporting alert counts (which must agree) and
// throughput.
func RunQueries(cfg QueriesConfig) []QueriesRow {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{
		NumObjects: cfg.Objects, Seed: cfg.Seed, FlammableFrac: 0.2, MoveProb: -1,
	})
	trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: cfg.Events, Seed: cfg.Seed + 1})
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: cfg.Particles, UseIndex: true, NegativeEvidence: true, Seed: cfg.Seed + 2,
	})
	var lts []rfid.LocationTuple
	for _, ev := range trace.Events {
		lts = append(lts, tx.Process(ev)...)
	}

	// A temperature grid with a hot spot near the first flammable object.
	var hotSpot *rfid.Object
	for _, o := range w.Objects {
		if o.Type == "flammable" {
			hotSpot = o
			break
		}
	}
	var temps []uop.TempReading
	if hotSpot != nil {
		var end stream.Time
		if n := len(lts); n > 0 {
			end = lts[n-1].T
		}
		for ts := stream.Time(0); ts <= end; ts += 5 * stream.Second {
			temps = append(temps,
				uop.TempReading{TS: ts, X: hotSpot.Pos.X, Y: hotSpot.Pos.Y, Temp: dist.NewNormal(78, 5)},
				uop.TempReading{TS: ts, X: hotSpot.Pos.X + 15, Y: hotSpot.Pos.Y, Temp: dist.NewNormal(24, 3)},
			)
		}
	}

	q1 := uop.Q1Config{WindowMS: 5 * stream.Second, ThresholdLbs: 200, AreaFt: 10,
		Strategy: core.CFApprox, MinAlertProb: 0.5}
	q2 := uop.Q2Config{RangeMS: 3 * stream.Second, TempThreshold: 60, LocTolFt: 6, MinProb: 0.1}

	var rows []QueriesRow
	measure := func(query, mode string, inputs int, run func() int) {
		start := time.Now()
		alerts := run()
		wall := time.Since(start)
		rows = append(rows, QueriesRow{
			Query: query, Mode: mode, Alerts: alerts, InputTuples: inputs,
			WallMS:     float64(wall.Microseconds()) / 1000,
			TuplesPerS: float64(inputs) / wall.Seconds(),
		})
	}
	// Operators treat input tuples as immutable, so every run replays the
	// same lifted traces; each run counts result tuples, one per alert.
	locs := make([]*core.UTuple, len(lts))
	for i, lt := range lts {
		locs[i] = uop.LocationUTuple(lt, w)
	}
	hot := make([]*core.UTuple, len(temps))
	for i, r := range temps {
		hot[i] = uop.TempUTuple(r)
	}
	q1Trace := uop.Trace{"locations": locs}
	q2Trace := uop.Trace{"locations": locs, "temps": hot}
	run := func(q *uop.Query, tr uop.Trace, buffer int) func() int {
		return func() int { return len(q.Compile().Run(tr, buffer)) }
	}
	measure("Q1", "push", len(lts), run(uop.BuildQ1(q1), q1Trace, 0))
	measure("Q1", "chan", len(lts), run(uop.BuildQ1(q1), q1Trace, cfg.Buffer))
	q2Inputs := len(lts) + len(temps)
	measure("Q2", "push", q2Inputs, run(uop.BuildQ2(w, q2), q2Trace, 0))
	measure("Q2", "chan", q2Inputs, run(uop.BuildQ2(w, q2), q2Trace, cfg.Buffer))
	// The shard-parallel plans: same queries, keyed/round-robin partitioned
	// across one shard instance per CPU. Alert counts must match the
	// single-instance plans exactly (the merge reunifies deterministically).
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	sq1, sq2 := q1, q2
	sq1.Shards, sq2.Shards = shards, shards
	// ASCII mode tag: cmd/repro pads table cells with %-7s, which counts
	// bytes, so a multi-byte rune would skew the column.
	mode := fmt.Sprintf("chan/%d", shards)
	measure("Q1", mode, len(lts), run(uop.BuildQ1(sq1), q1Trace, cfg.Buffer))
	measure("Q2", mode, q2Inputs, run(uop.BuildQ2(w, sq2), q2Trace, cfg.Buffer))
	return rows
}
