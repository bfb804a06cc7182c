package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// The per-layer cost ledger: an in-process pass over the base trace that
// times the calls into each layer's public functions, from this package —
// no span lives inside the program. Two kinds of row:
//
//   - chain rows are the stages a tuple crosses in a single-process streamd,
//     driven stage at a time over the previous stage's recorded output and,
//     once more, as one traced pipeline whose spans go to trace.json;
//   - standalone rows drive a layer that sits inside Compiled.PushTuple (and
//     so cannot be spanned from outside) through its public constructor.
//
// Every row reports ns, allocations and bytes per tuple (runtime.MemStats
// deltas around the timed loop).

// cost is what one unit (a tuple, unless the row says otherwise) cost.
type cost struct{ ns, allocs, bytes float64 }

// measure times the closure build returns, over units units. A row that
// runs under 300 ms is built and run three times and the fastest run is
// kept: on a shared box the minimum is the least disturbed sample.
func measure(units int, build func() func()) cost {
	var best cost
	u := float64(units)
	for rep := 0; rep < 3; rep++ {
		run := build()
		runtime.GC() // start every sample from the same collector state
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		c := cost{
			ns:     float64(d.Nanoseconds()) / u,
			allocs: float64(m1.Mallocs-m0.Mallocs) / u,
			bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / u,
		}
		if rep == 0 || c.ns < best.ns {
			best = c
		}
		if d > 300*time.Millisecond {
			break
		}
	}
	return best
}

type ledger struct{ ms []metric }

func (l *ledger) add(name, unit string, v float64) {
	l.ms = append(l.ms, metric{name, unit, v})
}

// row records a row's three standard metrics; per names the unit counted.
func (l *ledger) row(name, per string, c cost) {
	l.add(name+".ns_per_"+per, "ns", c.ns)
	l.add(name+".allocs_per_"+per, "count", c.allocs)
	l.add(name+".bytes_per_"+per, "bytes", c.bytes)
}

// aggOf finds the windowed-aggregate box of a compiled plan and returns
// its production configuration (window, dedup key, membership, aggregate).
func aggOf(c *uop.Compiled) (core.WindowAggConfig, core.PartitionedOp, error) {
	for _, b := range c.Graph.Boxes() {
		if h, ok := b.Op.(interface {
			core.PartitionedOp
			WindowAggConfig() core.WindowAggConfig
		}); ok {
			return h.WindowAggConfig(), h, nil
		}
	}
	return core.WindowAggConfig{}, nil, fmt.Errorf("plan has no windowed-aggregate box")
}

func q3Sharded() *uop.Compiled {
	cfg := server.DefaultQ3Config()
	cfg.SlideMS = q3Slide
	cfg.Shards = 2
	return uop.BuildQ3(cfg).Compile()
}

// pushRow times a compiled plan end to end over wrapped tuples: PushTuple
// for each, then Close. It returns the result tuples of the last run.
func pushRow(n int, mk func() *uop.Compiled, ts []*stream.Tuple) (cost, []*stream.Tuple) {
	var results []*stream.Tuple
	c := measure(n, func() func() {
		plan := mk()
		results = results[:0]
		plan.OnResult(func(t *stream.Tuple) { results = append(results, t) })
		return func() {
			for _, t := range ts {
				plan.PushTuple("locations", t)
			}
			plan.Close()
		}
	})
	return c, results
}

// opRow times a bare operator over wrapped tuples: Process each, Flush.
func opRow(n int, mk func() stream.Operator, ts []*stream.Tuple) cost {
	return measure(n, func() func() {
		op := mk()
		return func() {
			for _, t := range ts {
				op.Process(0, t, drop)
			}
			op.Flush(drop)
		}
	})
}

// contrib is one (tuple, group, probability) contribution to an aggregate.
type contrib struct {
	group string
	u     *core.UTuple
	p     float64
}

// windowSurvivors returns, per tumbling window, the tuples that survive
// DedupLatest(key): the last arrival per key.
func windowSurvivors(spec stream.WindowSpec, key string, ts []*stream.Tuple) [][]*core.UTuple {
	var wins [][]*core.UTuple
	op := stream.NewWindow("survivors", spec, func(window []*stream.Tuple, _ stream.Time, _ stream.Emit) {
		last := make(map[int64]int, len(window))
		for i, t := range window {
			last[core.Unwrap(t).Key(key)] = i
		}
		var keep []*core.UTuple
		for i, t := range window {
			if u := core.Unwrap(t); last[u.Key(key)] == i {
				keep = append(keep, u)
			}
		}
		wins = append(wins, keep)
	})
	for _, t := range ts {
		op.Process(0, t, drop)
	}
	op.Flush(drop)
	return wins
}

// slide is one sliding-window step as an accumulator sees it.
type slide struct {
	adds    []accOp
	removes []accOp
}

type accOp struct {
	contrib
	id int // index into the handle table
}

// slides replays ts through a delta window and records, per slide, the
// contributions that enter and leave each group's accumulator.
func slides(spec stream.WindowSpec, member func(*core.UTuple) []core.GroupMass, ts []*stream.Tuple) (out []slide, ops int) {
	live := make(map[*stream.Tuple][]accOp)
	op := stream.NewDeltaWindow("slides", spec, func(added, evicted []*stream.Tuple, _ stream.Time, _ stream.Emit) {
		var s slide
		for _, t := range added {
			u := core.Unwrap(t)
			for _, gm := range member(u) {
				if p := gm.P * u.Exist; p > 0 {
					o := accOp{contrib{gm.Group, u, p}, ops}
					ops++
					s.adds = append(s.adds, o)
					live[t] = append(live[t], o)
				}
			}
		}
		for _, t := range evicted {
			s.removes = append(s.removes, live[t]...)
			delete(live, t)
		}
		out = append(out, s)
	})
	for _, t := range ts {
		op.Process(0, t, drop)
	}
	op.Flush(drop)
	return out, ops
}

// accRow drives an aggregate's incremental accumulators the way the
// sliding-window path does: Add arrivals, Remove evictions, Result for
// every group the slide touched. It returns the Add/Remove cost per input
// tuple and the Result time per slide.
func accRow(n int, agg core.UAgg, steps []slide, ops int) (c cost, resultNSPerWindow float64) {
	var resultNS int64
	c = measure(n, func() func() {
		accs := make(map[string]core.Acc)
		handles := make([]uint64, ops)
		var dst []core.AggOut
		resultNS = 0
		return func() {
			for _, s := range steps {
				touched := make(map[string]core.Acc, 8)
				for _, o := range s.adds {
					a := accs[o.group]
					if a == nil {
						a = agg.NewAcc()
						accs[o.group] = a
					}
					handles[o.id] = a.Add(o.u, o.p)
					touched[o.group] = a
				}
				for _, o := range s.removes {
					a := accs[o.group]
					a.Remove(handles[o.id])
					touched[o.group] = a
				}
				t0 := time.Now()
				for _, a := range touched {
					if a.Len() > 0 {
						dst = a.Result(dst)
					}
				}
				resultNS += time.Since(t0).Nanoseconds()
			}
		}
	})
	// Result time is inside the measured loop; take it back out so the row
	// is Add/Remove alone.
	c.ns -= float64(resultNS) / float64(n)
	return c, float64(resultNS) / float64(len(steps))
}

// ledgerIn is what every row replays: the base pass in q1's compressed and
// q3's plain event time, as wire messages and as the wrapped tuples the
// decode stage produced.
type ledgerIn struct {
	cfg      runConfig
	n        int
	p8, p1   *pass
	ts8, ts1 []*stream.Tuple
	batches8 [][]*stream.Tuple // ts8 in request-sized batches
}

// runLedger produces every per-layer metric and writes trace.json.
func runLedger(cfg runConfig) ([]metric, error) {
	l := &ledger{}
	in := &ledgerIn{cfg: cfg}

	// rfid.transform: the T operator, the cost of making the inputs.
	var tr *trace
	tc := measure(1, func() func() {
		return func() { tr = genTrace(cfg.seed, traceObjects, cfg.events) }
	})
	in.n = len(tr.msgs)
	n := float64(in.n)
	l.add("rfid.transform.ns_per_tuple", "ns", float64(tr.transformNS)/n)
	l.add("rfid.transform.allocs_per_tuple", "count", tc.allocs/n)
	l.add("rfid.transform.bytes_per_tuple", "bytes", tc.bytes/n)
	l.add("rfid.transform.tuples_per_event", "count", n/float64(tr.events))

	var err error
	if in.p8, err = newPass(tr, 8); err != nil {
		return nil, err
	}
	if in.p1, err = newPass(tr, 1); err != nil {
		return nil, err
	}
	if in.batches8, in.ts8, err = wrapAll(in.p8); err != nil {
		return nil, err
	}
	if _, in.ts1, err = wrapAll(in.p1); err != nil {
		return nil, err
	}

	pushQ1, err := l.chainRows(in)
	if err != nil {
		return nil, err
	}
	for _, section := range []func() error{
		func() error { return l.q1Rows(in, pushQ1) },
		func() error { return l.q3Rows(in) },
		func() error { return l.topkRows(in) },
		func() error { return l.liveRow(in) },
		func() error { return l.checkpointRows(in) },
		func() error { return l.clusterRows(in) },
	} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	return l.ms, nil
}

// wrapAll records the decode stage's output over the whole pass: the
// wrapped tuples every later row replays.
func wrapAll(p *pass) (batches [][]*stream.Tuple, flat []*stream.Tuple, err error) {
	reqs, _, err := requests("bin", p)
	if err != nil {
		return nil, nil, err
	}
	c := newChain(nil, "bin")
	for _, req := range reqs {
		ts, err := c.decode(req)
		if err != nil {
			return nil, nil, err
		}
		batches = append(batches, append([]*stream.Tuple(nil), ts...))
		flat = append(flat, ts...)
	}
	return batches, flat, nil
}

// chainRows measures the single-process tuple path stage at a time, then
// as one pipeline, untraced and traced; it writes trace.json and returns
// the uop.push_q1 row for the rows that decompose it.
func (l *ledger) chainRows(in *ledgerIn) (pushQ1 cost, err error) {
	n := in.n
	binReqs, binBytes, err := requests("bin", in.p8)
	if err != nil {
		return cost{}, err
	}
	jsonReqs, jsonBytes, err := requests("json", in.p8)
	if err != nil {
		return cost{}, err
	}
	var stageErr error
	decodeRow := func(proto string, reqs [][]byte) cost {
		return measure(n, func() func() {
			c := newChain(nil, proto)
			return func() {
				for _, req := range reqs {
					if _, err := c.decode(req); err != nil && stageErr == nil {
						stageErr = err
					}
				}
			}
		})
	}
	decBin := decodeRow("bin", binReqs)
	l.row("server.decode_bin", "tuple", decBin)
	l.add("server.decode_bin.bytes_in_per_tuple", "bytes", float64(binBytes)/float64(n))
	l.row("server.decode_json", "tuple", decodeRow("json", jsonReqs))
	l.add("server.decode_json.bytes_in_per_tuple", "bytes", float64(jsonBytes)/float64(n))

	queueRow := measure(n, func() func() {
		c := newChain(nil, "bin")
		return func() {
			for _, b := range in.batches8 {
				c.handOff(b)
			}
		}
	})
	l.row("server.queue", "tuple", queueRow)
	l.add("server.queue.wait_ns_per_tuple", "ns", queueWait(in.ts8))

	pushQ1, alerts := pushRow(n, q1Ref, in.ts8)
	l.row("uop.push_q1", "tuple", pushQ1)

	var lines [][]byte
	encRow := measure(len(alerts), func() func() {
		lines = lines[:0]
		return func() {
			for _, t := range alerts {
				line, err := encodeAlert(t)
				if err != nil && stageErr == nil {
					stageErr = err
				}
				lines = append(lines, line)
			}
		}
	})
	l.row("server.alert_encode", "alert", encRow)
	if stageErr != nil {
		return cost{}, fmt.Errorf("chain stage: %w", stageErr)
	}
	hubRow := measure(len(lines), func() func() {
		c := newChain(nil, "bin")
		return func() {
			for _, line := range lines {
				c.hub.Broadcast(line)
				<-c.sub.Lines()
			}
		}
	})
	l.row("server.hub", "alert", hubRow)

	// The same stages as one pipeline. Untraced and traced runs alternate,
	// fastest of three each, so that drift in the box's speed does not pass
	// for tracing overhead.
	pipeline := func(tr *tracer, proto string, reqs [][]byte) (time.Duration, error) {
		c := newChain(tr, proto)
		runtime.GC()
		t0 := time.Now()
		err := c.run(reqs)
		return time.Since(t0), err
	}
	var untraced, traced time.Duration
	var binTrace *tracer
	for rep := 0; rep < 3; rep++ {
		d, err := pipeline(nil, "bin", binReqs)
		if err != nil {
			return cost{}, err
		}
		if rep == 0 || d < untraced {
			untraced = d
		}
		binTrace = newTracer()
		if d, err = pipeline(binTrace, "bin", binReqs); err != nil {
			return cost{}, err
		}
		if rep == 0 || d < traced {
			traced = d
		}
	}
	jsonTrace := newTracer()
	if _, err := pipeline(jsonTrace, "json", jsonReqs); err != nil {
		return cost{}, err
	}
	spans := binTrace.spans
	for _, s := range jsonTrace.spans {
		s.ID += len(binTrace.spans)
		s.Frame += binTrace.frame
		if s.Parent >= 0 {
			s.Parent += len(binTrace.spans)
		}
		spans = append(spans, s)
	}
	tracePath := filepath.Join(in.cfg.out, "trace.json")
	if err := writeTrace(tracePath, n, spans); err != nil {
		return cost{}, err
	}
	fmt.Printf("  wrote %s (%d spans)\n", tracePath, len(spans))
	rows := (decBin.ns+queueRow.ns+pushQ1.ns)*float64(n) + (encRow.ns+hubRow.ns)*float64(len(alerts))
	l.add("ledger.residual_share", "ratio", 1-rows/float64(untraced.Nanoseconds()))
	l.add("ledger.trace_overhead_share", "ratio", float64(traced)/float64(untraced)-1)
	return pushQ1, nil
}

// sliding is the window the accumulator and delta-window rows slide over:
// q3_slide_ckpt's.
var sliding = stream.WindowSpec{Duration: windowMS, Slide: q3Slide}

// q1Rows are the layers inside uop.push_q1 — tumbling window, dedup,
// membership, gated sum — each driven standalone.
func (l *ledger) q1Rows(in *ledgerIn, pushQ1 cost) error {
	n := in.n
	cfg, _, err := aggOf(q1Ref())
	if err != nil {
		return err
	}
	winRow := opRow(n, func() stream.Operator {
		return stream.NewWindow("window", cfg.Window, func([]*stream.Tuple, stream.Time, stream.Emit) {})
	}, in.ts8)
	l.row("stream.window", "tuple", winRow)

	wins := windowSurvivors(cfg.Window, cfg.DedupKey, in.ts8)
	grouped := make([]map[string][]contrib, len(wins))
	memberRow := measure(n, func() func() {
		return func() {
			for i, win := range wins {
				g := make(map[string][]contrib)
				for _, u := range win {
					for _, gm := range cfg.Member(u) {
						if p := gm.P * u.Exist; p > 0 {
							g[gm.Group] = append(g[gm.Group], contrib{gm.Group, u, p})
						}
					}
				}
				grouped[i] = g
			}
		}
	})
	l.row("core.membership", "tuple", memberRow)

	gateRow := measure(n, func() func() {
		return func() {
			for _, g := range grouped {
				for _, cs := range g {
					pcs := make([]core.PartialContrib, len(cs))
					for i, c := range cs {
						d, aux := cfg.Agg.Prepare(c.u, c.p)
						pcs[i] = core.PartialContrib{U: c.u, P: c.p, D: d, Aux: aux}
					}
					cfg.Agg.Finalize(pcs)
				}
			}
		}
	})
	l.row("core.gate_sum", "tuple", gateRow)
	l.add("uop.push_q1.unattributed_share", "ratio", 1-(winRow.ns+memberRow.ns+gateRow.ns)/pushQ1.ns)

	l.row("core.window_agg_sum", "tuple", opRow(n, func() stream.Operator {
		return core.NewWindowAggOp("agg", cfg)
	}, in.ts8))

	steps, ops := slides(sliding, cfg.Member, in.ts8)
	acc, res := accRow(n, cfg.Agg, steps, ops)
	l.row("core.acc_sum", "tuple", acc)
	l.add("core.acc_sum.result_ns_per_window", "ns", res)
	return nil
}

// q3Rows are q3_slide_ckpt's layers, on its uncompressed event time.
func (l *ledger) q3Rows(in *ledgerIn) error {
	n := in.n
	pushQ3, _ := pushRow(n, q3Sharded, in.ts1)
	l.row("uop.push_q3", "tuple", pushQ3)

	cfg, _, err := aggOf(q3Ref())
	if err != nil {
		return err
	}
	evictions := 0
	l.row("stream.delta_window", "tuple", opRow(n, func() stream.Operator {
		evictions = 0
		return stream.NewDeltaWindow("delta", sliding, func(_, evicted []*stream.Tuple, _ stream.Time, _ stream.Emit) {
			evictions += len(evicted)
		})
	}, in.ts1))
	l.add("stream.delta_window.evictions_per_tuple", "count", float64(evictions)/float64(n))

	// envelope times a hand-wired shard envelope: partition → two middle
	// boxes (or straight through) → merge → sink.
	envelope := func(mk func() (part stream.Operator, mid []stream.Operator, merge stream.Operator)) cost {
		return measure(n, func() func() {
			part, mid, merge := mk()
			g := stream.NewGraph()
			pb := g.AddBox(part)
			var mids []*stream.Box
			for _, m := range mid {
				mids = append(mids, g.AddBox(m))
			}
			mb := g.AddBox(merge)
			sink := g.AddBox(&stream.Collect{OnTuple: drop})
			for i := 0; i < 2; i++ {
				if mids == nil {
					g.Connect(pb, mb, i)
					continue
				}
				g.Connect(pb, mids[i], 0)
				g.Connect(mids[i], mb, i)
			}
			g.Connect(mb, sink, 0)
			return func() {
				for _, t := range in.ts1 {
					g.Push(pb, 0, t)
				}
				g.Close()
			}
		})
	}
	l.row("stream.partition_merge", "tuple", envelope(func() (stream.Operator, []stream.Operator, stream.Operator) {
		return stream.NewPartition("partition", 2, stream.PartitionSpec{Watermarks: true}), nil, stream.NewSeqMerge("merge", 2)
	}))
	partialRow := envelope(func() (stream.Operator, []stream.Operator, stream.Operator) {
		// Shard(2) is the production envelope: a clocked, tag-routed
		// partition, NewWindowAggPartialOp ×2, NewWindowAggMergeOp.
		_, op, _ := aggOf(q3Ref())
		sp := op.Shard(2)
		return stream.NewPartition("partition", 2, sp.Partition), sp.Shards, sp.Merge
	})
	l.row("core.partial_merge", "tuple", partialRow)
	l.add("uop.push_q3.unattributed_share", "ratio", 1-partialRow.ns/pushQ3.ns)

	steps, ops := slides(sliding, cfg.Member, in.ts1)
	acc, res := accRow(n, cfg.Agg, steps, ops)
	l.row("core.acc_quantile", "tuple", acc)
	l.add("core.acc_quantile.result_ns_per_window", "ns", res)
	return nil
}

// topkRows: top-k dominating is on no end-to-end path, ledger rows only.
func (l *ledger) topkRows(in *ledgerIn) error {
	q4 := func() *uop.Compiled { return uop.BuildQ4(server.DefaultQ4Config()).Compile() }
	pushQ4, _ := pushRow(in.n, q4, in.ts1)
	l.row("uop.push_q4", "tuple", pushQ4)
	cfg, _, err := aggOf(q4())
	if err != nil {
		return err
	}
	ungrouped := func(*core.UTuple) []core.GroupMass { return []core.GroupMass{{Group: "", P: 1}} }
	steps, ops := slides(sliding, ungrouped, in.ts1)
	acc, res := accRow(in.n, cfg.Agg, steps, ops)
	l.row("core.acc_topk", "tuple", acc)
	l.add("core.acc_topk.result_ns_per_window", "ns", res)
	return nil
}

// liveRow is uop.live_q1: the live executor fed from a queue (the old
// EngineFloor) — producer goroutine → Queue → RunLiveOpts box goroutines.
func (l *ledger) liveRow(in *ledgerIn) error {
	var liveErr error
	l.row("uop.live_q1", "tuple", measure(in.n, func() func() {
		plan := q1Ref()
		plan.OnResult(drop)
		box, port, _ := plan.LookupSource("locations")
		q := server.NewQueue(1024, server.Block)
		return func() {
			go func() {
				for _, t := range in.ts8 {
					q.Put(context.Background(), stream.SourceTuple{Box: box, Port: port, T: t})
				}
				q.Close()
			}()
			if err := plan.RunLiveOpts(context.Background(), q, stream.LiveOptions{}); err != nil {
				liveErr = err
			}
		}
	}))
	if liveErr != nil {
		return fmt.Errorf("uop.live_q1: %w", liveErr)
	}
	return nil
}

// queueWait is the ingest queue's hand-off across two goroutines: a
// producer Puts at full speed, a consumer takes; the result is the mean
// time a tuple spent between the two.
func queueWait(ts []*stream.Tuple) float64 {
	q := server.NewQueue(1024, server.Block)
	putAt := make([]time.Time, len(ts))
	go func() {
		for i, t := range ts {
			putAt[i] = time.Now()
			q.Put(context.Background(), stream.SourceTuple{T: t})
		}
		q.Close()
	}()
	var total time.Duration
	i := 0
	for range q.Tuples() {
		total += time.Since(putAt[i])
		i++
	}
	return float64(total.Nanoseconds()) / float64(len(ts))
}

// checkpointRows times the checkpoint barrier's two halves on
// q3_slide_ckpt's plan, mid-stream: Compiled.Checkpoint / RestoreFrom, and
// FileStore.Put (write, fsync, rename, directory fsync).
func (l *ledger) checkpointRows(in *ledgerIn) error {
	cfg, ts := in.cfg, in.ts1
	plan := q3Sharded()
	plan.OnResult(drop)
	for _, t := range ts[:len(ts)/2] {
		plan.PushTuple("locations", t)
	}
	const reps = 5
	var blob []byte
	ckptMS := make([]float64, reps)
	for i := range ckptMS {
		t0 := time.Now()
		b, err := plan.Checkpoint()
		if err != nil {
			return err
		}
		ckptMS[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		blob = b
	}
	restoreMS := make([]float64, reps)
	for i := range restoreMS {
		fresh := q3Sharded()
		t0 := time.Now()
		if err := fresh.RestoreFrom(blob); err != nil {
			return err
		}
		restoreMS[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	ps := &procs{}
	defer ps.stopAll(cfg.out, false)
	dir, err := ps.tempDir(cfg.out, "store-")
	if err != nil {
		return err
	}
	fs, err := server.NewFileStore(dir)
	if err != nil {
		return err
	}
	putMS := make([]float64, reps)
	for i := range putMS {
		t0 := time.Now()
		if err := fs.Put(0, blob); err != nil {
			return err
		}
		putMS[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	l.add("uop.checkpoint.ms_per_ckpt", "ms", median(ckptMS))
	l.add("uop.checkpoint.bytes_per_ckpt", "bytes", float64(len(blob)))
	l.add("uop.checkpoint.restore_ms", "ms", median(restoreMS))
	l.add("server.store.ms_per_ckpt", "ms", median(putMS))
	return nil
}

// clusterRows are the layers only cluster_q1_bin crosses: the ring lookup,
// the router's per-tuple re-encode, and the hop itself — an epoch through
// an in-process router and one worker minus the same epoch through a
// single in-process server.
func (l *ledger) clusterRows(in *ledgerIn) error {
	p, n := in.p8, in.n
	l.row("ring.lookup", "tuple", measure(n, func() func() {
		r := ring.New(0)
		for _, id := range []string{"w0", "w1"} {
			r.Add(ring.Member{ID: id, Weight: 1})
		}
		return func() {
			for i := range p.msgs {
				r.Successors(p.msgs[i].Keys["tag"], 2)
			}
		}
	}))
	var encErr error
	l.row("server.encode_bin", "tuple", measure(n, func() func() {
		enc := server.NewBwEncoder()
		return func() {
			for i := range p.msgs {
				sc, _, err := enc.Intern(&p.msgs[i])
				if err != nil {
					encErr = err
					return
				}
				server.EncodeTupleFrame(sc, &p.msgs[i], 0, false)
			}
		}
	}))
	if encErr != nil {
		return encErr
	}

	q1 := server.DefaultQ1Config()
	single, err := server.New(server.Config{Addr: "127.0.0.1:0", NewPlan: server.Q1Plan(q1)})
	if err != nil {
		return err
	}
	direct, err := bestEpoch(single.Addr().String(), p)
	single.Close()
	if err != nil {
		return fmt.Errorf("single-server epoch: %w", err)
	}

	cplan, err := uop.BuildQ1(q1).Cluster()
	if err != nil {
		return err
	}
	worker, err := server.New(server.Config{Addr: "127.0.0.1:0", NewPlan: cplan.CompileWorker, Cluster: true})
	if err != nil {
		return err
	}
	defer worker.Close()
	rt, err := router.New(router.Config{
		Addr: "127.0.0.1:0", Workers: []string{worker.Addr().String()}, Replicas: 1, Plan: cplan, Proto: "bin",
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	hopped, err := bestEpoch(rt.Addr().String(), p)
	if err != nil {
		return fmt.Errorf("router epoch: %w", err)
	}
	var linkBytes, linkTuples uint64
	for _, c := range worker.Stats().Conns {
		linkBytes += c.BytesIn
	}
	linkTuples = worker.Stats().Ingested
	l.add("router.hop.ns_per_tuple", "ns", float64((hopped-direct).Nanoseconds())/float64(n))
	l.add("router.hop.bytes_link_per_tuple", "bytes", float64(linkBytes)/float64(linkTuples))
	return nil
}

// bestEpoch replays the pass as closed-loop epochs against an in-process
// front end: one warm-up, then the fastest of three.
func bestEpoch(addr string, p *pass) (time.Duration, error) {
	cl, err := dial(addr, newEnc("bin"))
	if err != nil {
		return 0, err
	}
	defer cl.close()
	n := len(p.msgs)
	best := time.Duration(0)
	for i := 0; i < 4; i++ {
		buf, err := encodeRange(cl.enc, p, 0, n)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cl.write(buf); err != nil {
			return 0, err
		}
		seg, _, err := cl.end()
		if err != nil {
			return 0, err
		}
		if d := seg.doneAt.Sub(t0); i > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return best, nil
}
