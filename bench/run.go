package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one named number with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one workload run reports.
type result struct {
	workload  string
	endToEnd  []metric
	perLayer  []metric // loadgen.* and statsz.*: validity and SUT counters
	attempted int64
	failed    int64
	notes     []string
}

// runConfig is what the command line fixes for every workload of a run.
type runConfig struct {
	seed   int64
	events int
	phase  time.Duration // length of each sat, lo and hi phase of a round
	setups int           // how many times set-up is repeated for its median
	bin    string        // streamd binary
	out    string        // output directory
	buildS float64
}

// rig is a set-up system under test with its inputs.
type rig struct {
	pass   *pass
	sut    *sut
	enc    wireEnc
	warm   []byte   // the base pass encoded on enc, schema frame included
	satRef [][]byte // reference alerts of one epoch over the base pass
}

// setUp does everything that precedes the first measured byte: trace
// generation and T-operator inference, wire encoding, the offline
// reference for one pass, and SUT start until it answers a ping.
func setUp(w *workload, cfg runConfig, ps *procs) (*rig, error) {
	r := &rig{enc: newEnc(w.proto)}
	var err error
	if r.pass, err = newPass(genTrace(cfg.seed, traceObjects, cfg.events), w.compress); err != nil {
		return nil, err
	}
	n := len(r.pass.msgs)
	if r.warm, err = encodeRange(r.enc, r.pass, 0, n); err != nil {
		return nil, err
	}
	if r.satRef, err = reference(w.plan(), r.pass, n); err != nil {
		return nil, err
	}
	if r.sut, err = w.start(ps, cfg.bin, cfg.out); err != nil {
		return nil, err
	}
	return r, r.sut.waitReady()
}

// rounds is how many times the [sat, lo, hi] sequence repeats within a
// run, each phase lasting a third of seconds/rounds. Samples pool across
// rounds. The box's speed wanders on a scale of seconds; three short
// visits spread over the run see more of that than one long one, so the
// pooled medians move less from run to run.
const rounds = 3

// openPlan is an open-loop phase prepared before any clock starts: the
// schedule, the ingest bytes of every tick, and the reference alerts. One
// plan serves every round: each round's epoch restarts the stream at
// tuple 0 on a fresh plan in the SUT.
type openPlan struct {
	sch    schedule
	chunks [][]byte
	want   [][]byte
}

func prepareOpen(w *workload, r *rig, enc wireEnc, rate int, length time.Duration) (*openPlan, error) {
	sch := schedule{rate: rate, n: int(int64(rate) * int64(length) / int64(time.Second))}
	pl := &openPlan{sch: sch, chunks: make([][]byte, sch.ticks())}
	from := 0
	for k := range pl.chunks {
		to := sch.dueBy(k)
		var err error
		if pl.chunks[k], err = encodeRange(enc, r.pass, from, to); err != nil {
			return nil, err
		}
		from = to
	}
	if from != sch.n {
		return nil, fmt.Errorf("schedule covers %d of %d tuples", from, sch.n)
	}
	var err error
	pl.want, err = reference(w.plan(), r.pass, sch.n)
	return pl, err
}

// openStats pools one rate's open-loop measurements over the rounds.
type openStats struct {
	plan  *openPlan
	lat   []float64 // ms
	lagMS []float64
	// grew reports a round whose backlog (tuples due minus tuples the SUT
	// took in) grew over the phase's second half by more than 10 ms of
	// input, which is jitter.
	grew       bool
	backlogEnd int64 // the last round's
	bad        int
	mismatch   string // the first one, when bad > 0
	rejected   int
}

// meets reports whether the rate held the latency limit in every round:
// no failed alert, tail within the limit, no growing backlog.
func (o *openStats) meets(limitMS float64) bool {
	t, _ := tail(o.lat)
	return o.bad == 0 && !o.grew && t <= limitMS
}

// runWorkload drives one workload end to end: repeated set-up, a warm-up
// epoch, then rounds of sat, lo and hi phases against the same SUT
// processes.
func runWorkload(w *workload, cfg runConfig, ps *procs) (res *result, err error) {
	defer func() { ps.stopAll(cfg.out, err != nil) }()

	var r *rig
	setupS := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			ps.stopAll(cfg.out, false)
		}
		t0 := time.Now()
		if r, err = setUp(w, cfg, ps); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	cl, err := dial(r.sut.front.addr, r.enc)
	if err != nil {
		return nil, err
	}
	defer cl.close()

	res = &result{workload: w.name}
	n := len(r.pass.msgs)
	var sent, expected, bad, rejected int64

	// epoch sends one pre-encoded pass and drains it; it returns first
	// ingest byte → done.
	epoch := func(buf []byte) (time.Duration, error) {
		t0 := time.Now()
		if err := cl.write(buf); err != nil {
			return 0, err
		}
		seg, rej, err := cl.end()
		if err != nil {
			return 0, err
		}
		sent += int64(n)
		expected += int64(len(r.satRef))
		if b, first := compare(r.satRef, seg); b > 0 {
			bad += int64(b)
			res.notes = append(res.notes, "closed-loop epoch: "+first)
		}
		rejected += int64(rej)
		return seg.doneAt.Sub(t0), nil
	}
	if _, err := epoch(r.warm); err != nil {
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}

	// Everything the phases send is encoded, and every reference computed,
	// before the first measured byte.
	t0 := time.Now()
	satBuf, err := encodeRange(cl.enc, r.pass, 0, n)
	if err != nil {
		return nil, err
	}
	open := make([]*openStats, 2) // lo, hi
	for i, rate := range []int{w.loRate, w.hiRate} {
		pl, err := prepareOpen(w, r, cl.enc, rate, cfg.phase)
		if err != nil {
			return nil, fmt.Errorf("prepare open loop at %d tuples/s: %w", rate, err)
		}
		open[i] = &openStats{plan: pl}
	}
	prepS := time.Since(t0).Seconds()

	var perEpoch []float64
	var cpuTicks int64
	for round := 0; round < rounds; round++ {
		// sat: closed loop, back-to-back epochs for one phase length.
		cpu0, err := r.sut.cpuTicks()
		if err != nil {
			return nil, err
		}
		for t0, k := time.Now(), 0; time.Since(t0) < cfg.phase || k == 0; k++ {
			dt, err := epoch(satBuf)
			if err != nil {
				return nil, fmt.Errorf("sat epoch %d: %w", len(perEpoch), err)
			}
			perEpoch = append(perEpoch, float64(n)/dt.Seconds())
		}
		cpu1, err := r.sut.cpuTicks()
		if err != nil {
			return nil, err
		}
		cpuTicks += cpu1 - cpu0

		// lo, hi: open loop at the frozen rates.
		for _, o := range open {
			if err := openPhase(r, cl, o, cfg.phase); err != nil {
				return nil, fmt.Errorf("open loop at %d tuples/s: %w", o.plan.sch.rate, err)
			}
			sent += int64(o.plan.sch.n)
			expected += int64(len(o.plan.want))
		}
	}
	for _, o := range open {
		bad += int64(o.bad)
		rejected += int64(o.rejected)
		if o.bad > 0 {
			res.notes = append(res.notes, fmt.Sprintf("open loop at %d tuples/s: %s", o.plan.sch.rate, o.mismatch))
		}
		sort.Float64s(o.lat)
		sort.Float64s(o.lagMS)
		if len(o.lat) == 0 {
			return nil, fmt.Errorf("open loop at %d tuples/s: no alert had a trigger tuple: phase too short for one window", o.plan.sch.rate)
		}
	}
	lo, hi := open[0], open[1]

	snap, err := r.sut.scrape()
	if err != nil {
		return nil, err
	}
	rssKB, err := r.sut.peakRSSKB()
	if err != nil {
		return nil, err
	}

	lost := sent - int64(snap.ingested)
	if lost < 0 {
		lost = -lost
	}
	res.attempted = sent + expected
	res.failed = lost + bad + rejected + int64(snap.subDropped) + int64(snap.queueDropped)
	if res.failed > 0 {
		res.notes = append(res.notes, fmt.Sprintf(
			"FAILED: %d tuples sent but not ingested (sent %d, ingested %d), %d alert lines wrong, %d tuples refused, %d sub_dropped, %d queue_dropped",
			lost, sent, snap.ingested, bad, rejected, snap.subDropped, snap.queueDropped))
	}

	sustained := 0.0
	for _, o := range open {
		if o.meets(w.limitMS) {
			sustained = float64(o.plan.sch.rate)
		}
		if lag := quantile(o.lagMS, 0.99); lag > 1 {
			res.notes = append(res.notes, fmt.Sprintf(
				"open loop at %d tuples/s is UNRESOLVED: send lag p99 %.2f ms exceeds 1 ms, so its latencies include generator lag",
				o.plan.sch.rate, lag))
		}
	}
	loTail, loPct := tail(lo.lat)
	hiTail, hiPct := tail(hi.lat)
	satP25, _, satP75 := quartiles(perEpoch)
	res.notes = append(res.notes,
		fmt.Sprintf("wall: set-ups %.2f s; encode-ahead and references %.2f s; %d rounds of %.2f s phases, %d sat epochs",
			setupS, prepS, rounds, cfg.phase.Seconds(), len(perEpoch)),
		fmt.Sprintf("loadgen.alert_p99_ms is p%.2f of %d samples; loadgen.alert_hi_p99_ms is p%.2f of %d samples; limit %.0f ms",
			loPct, len(lo.lat), hiPct, len(hi.lat), w.limitMS))

	res.endToEnd = []metric{
		{"setup_s", "s", median(setupS)},
		{"sat_tuples_per_s", "tuples/s", median(perEpoch)},
		{"cpu_us_per_tuple", "us", float64(cpuTicks) * (1e6 / userHZ) / float64(len(perEpoch)*n)},
		{"peak_rss_mb", "MB", float64(rssKB) / 1024},
	}
	res.perLayer = []metric{
		{"loadgen.failed_share", "ratio", float64(res.failed) / float64(res.attempted)},
		{"loadgen.send_lag_p99_ms", "ms", math.Max(quantile(lo.lagMS, 0.99), quantile(hi.lagMS, 0.99))},
		{"loadgen.backlog_end_tuples", "tuples", float64(hi.backlogEnd)},
		{"loadgen.sustained_tuples_per_s", "tuples/s", sustained},
		{"loadgen.sat_p25", "tuples/s", satP25},
		{"loadgen.sat_p75", "tuples/s", satP75},
		{"loadgen.sat_epochs", "count", float64(len(perEpoch))},
		{"loadgen.alert_p50_ms", "ms", quantile(lo.lat, 0.5)},
		{"loadgen.alert_p90_ms", "ms", quantile(lo.lat, 0.9)},
		{"loadgen.alert_p99_ms", "ms", loTail},
		{"loadgen.alert_hi_p50_ms", "ms", quantile(hi.lat, 0.5)},
		{"loadgen.alert_hi_p90_ms", "ms", quantile(hi.lat, 0.9)},
		{"loadgen.alert_hi_p99_ms", "ms", hiTail},
		{"loadgen.alert_max_ms", "ms", math.Max(lo.lat[len(lo.lat)-1], hi.lat[len(hi.lat)-1])},
		{"loadgen.alert_samples", "count", float64(len(lo.lat) + len(hi.lat))},
		{"loadgen.alerts_expected", "count", float64(expected)},
		{"loadgen.alerts_matched", "count", float64(expected - bad)},
		{"loadgen.build_s", "s", cfg.buildS},
		{"statsz.ingested", "count", float64(snap.ingested)},
		{"statsz.alerts", "count", float64(snap.alerts)},
		{"statsz.queue_max_depth", "count", float64(snap.queueMaxDepth)},
		{"statsz.queue_dropped", "count", float64(snap.queueDropped)},
		{"statsz.sub_dropped", "count", float64(snap.subDropped)},
		{"statsz.ckpt_count", "count", float64(snap.ckptCount)},
		{"statsz.ckpt_last_bytes", "bytes", float64(snap.ckptLastBytes)},
		{"statsz.ckpt_last_ms", "ms", snap.ckptLastMS},
	}
	return res, nil
}

// openPhase runs one open-loop epoch of a prepared plan — the base pass
// repeated as one continuous stream, tuple i due at start + i/rate, sent
// in 1 ms ticks — and adds what it measured to o.
func openPhase(r *rig, cl *client, o *openStats, length time.Duration) error {
	sch := o.plan.sch
	before, err := r.sut.scrape()
	if err != nil {
		return err
	}

	start := time.Now().Add(2 * tick)
	// backlog is tuples due by now minus tuples the SUT has taken in.
	backlog := func() (int64, error) {
		due := sch.dueBy(int(time.Since(start) / tick))
		snap, err := r.sut.scrape()
		return int64(due) - int64(snap.ingested-before.ingested), err
	}
	type sample struct {
		v   int64
		err error
	}
	mid := make(chan sample, 1)
	go func() {
		time.Sleep(time.Until(start.Add(length / 2)))
		v, err := backlog()
		mid <- sample{v, err}
	}()

	lags, perr := pace(wallClock, start, o.plan.chunks, cl.write)
	m := <-mid
	if perr != nil {
		return perr
	}
	if m.err != nil {
		return m.err
	}
	if o.backlogEnd, err = backlog(); err != nil {
		return err
	}
	if o.backlogEnd-m.v > int64(sch.rate/100) {
		o.grew = true
	}
	seg, rej, err := cl.end()
	if err != nil {
		return err
	}
	o.rejected += rej
	for _, l := range lags {
		o.lagMS = append(o.lagMS, float64(l)/float64(time.Millisecond))
	}
	lat, err := alertLatencies(seg, r.pass, sch, start)
	if err != nil {
		return err
	}
	o.lat = append(o.lat, lat...)
	if b, first := compare(o.plan.want, seg); b > 0 {
		if o.bad == 0 {
			o.mismatch = first
		}
		o.bad += b
	}
	return nil
}
