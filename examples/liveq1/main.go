// Live Q1: continuous execution with no terminal Close.
//
// A generator goroutine trickles RFID location tuples into a compiled,
// sharded Q1 diagram running under RunLiveOpts — the channel executor fed
// from a live source. Alerts print the moment their window closes: partial
// transport batches flush whenever the feed idles, the partitioner
// broadcasts each window close to every shard, and the HAVING runs as one
// box right after the merge, so nothing waits for end-of-stream.
// After the trace, the source channel closes and the graph drains
// gracefully (exactly what cmd/streamd does on "end" or SIGTERM).
//
// Run: go run ./examples/liveq1
package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rfid"
	"repro/internal/stream"
	"repro/internal/uop"
)

func main() {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 80, Seed: 7, MoveProb: -1})
	trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: 400, Seed: 8})
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: 50, UseIndex: true, NegativeEvidence: true, Seed: 9,
	})

	compiled := uop.BuildQ1(uop.Q1Config{
		WindowMS:     5 * stream.Second,
		ThresholdLbs: 150,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.5,
		Shards:       2,
	}).Compile()
	fmt.Print("compiled sharded Q1 diagram:\n" + compiled.Describe() + "\n")

	// Streaming sink: alerts arrive here from the sink box's goroutine as
	// windows close, tagged with arrival wall time to show liveness.
	start := time.Now()
	compiled.OnResult(func(t *stream.Tuple) {
		u := core.Unwrap(t)
		total := u.Attr("weight")
		fmt.Printf("[%6.2fs] ALERT window@%-6d area=%-8s total=%6.1f lbs (σ=%4.1f)  P=%.3f\n",
			time.Since(start).Seconds(), t.TS, t.Str("group"),
			total.Mean(), total.Std(), t.Get("p").(float64))
	})

	entry, port, ok := compiled.LookupSource("locations")
	if !ok {
		panic("liveq1: plan lost its locations source")
	}
	src := make(stream.ChanSource, 64)
	go func() {
		defer close(src) // end of stream: RunLiveOpts drains gracefully
		for i, ev := range trace.Events {
			for _, lt := range tx.Process(ev) {
				u := uop.LocationUTuple(lt, w)
				src <- stream.SourceTuple{Box: entry, Port: port, T: core.Wrap(u)}
			}
			if i%50 == 0 {
				time.Sleep(20 * time.Millisecond) // a bursty live feed
			}
		}
	}()

	if err := compiled.RunLiveOpts(context.Background(), src, stream.LiveOptions{Buffer: 128}); err != nil {
		panic(err)
	}

	fmt.Println("\nper-box traffic:")
	for _, b := range compiled.Graph.Boxes() {
		st := b.Stats()
		fmt.Printf("  %-28s in=%-6d out=%d\n", b.Op.Name(), st.In, st.Out)
	}
}
