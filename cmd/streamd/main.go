// Command streamd is the continuous-query ingest daemon: it serves a
// compiled (sharded) uncertain-stream plan over TCP, accepting JSON-lines
// tuples from any number of client connections, streaming alerts back to
// subscribers as windows close, and applying backpressure through a
// bounded ingest queue. GET /statsz on the HTTP address reports per-box
// engine stats, queue depths, and throughput.
//
// Protocol (newline-delimited JSON; see internal/server):
//
//	{"kind":"tuple","source":"locations","t_ms":1200,"keys":{"tag":17},
//	 "attrs":{"x":[41.2,1.5],"y":[7.0,1.5],"z":2.25,"weight":140}}
//	{"kind":"sub"}   → subscribe to the alert stream
//	{"kind":"end"}   → drain: flush open windows, broadcast "done"
//	{"kind":"ping"}  → health check; answered with {"kind":"pong",...}
//
// After a drain the daemon compiles a fresh plan and serves the next
// stream, unless -once is set (the smoke-test mode: exit after the first
// drain).
//
// Usage:
//
//	streamd [-mode server|worker|router] [-addr :9090] [-http :9091]
//	        [-query q1|q2|quantile|topk] [-shards N]
//	        [-window MS] [-slide MS] [-threshold LBS] [-area-ft FT]
//	        [-level Q] [-k N]
//	        [-queue N] [-policy block|drop-oldest] [-flush-every DUR]
//	        [-data-dir DIR] [-checkpoint-every DUR] [-once]
//	        [-workers ADDR,ADDR,...] [-slots N] [-replicas N] [-vnodes N]
//	        [-weights W,W,...] [-ping-every DUR] [-join ROUTER_ADDR]
//	        [-proto bin]
//
// With -data-dir set the daemon is crash-safe: it checkpoints the running
// plan's durable state (window buffers, accumulators, lineage) to
// DIR/epoch-<n>.ckpt periodically and on graceful shutdown, and on startup
// recovers the newest checkpoint — resuming open windows so post-restart
// alerts are byte-identical to an uninterrupted run. A SIGTERM drain writes
// the final checkpoint before open windows flush. In router mode -data-dir
// makes the *router* crash-safe the same way: every cluster checkpoint
// persists the router's window clock, routing tables, and merge state, and
// a restarted router rewinds its workers to that cut and resumes the
// subscriber feed byte-identically.
//
// # Cluster execution
//
// -mode worker starts a cluster worker: it waits for a router to join it,
// then runs the worker half of the cluster split (partial aggregates over
// its key subset). -mode router starts the front end: it owns the window
// clock, routes each tuple by key over a consistent-hash ring across
// -workers, merges the workers' partials, and serves clients the exact
// protocol above — alerts are byte-identical to a single-process run. With
// -replicas 2 every tuple is dual-written to the owner's ring successor,
// and -checkpoint-every drives cluster checkpoints so a killed worker fails
// over from snapshot + replay tail. Router↔worker tuples, closes and
// partials travel as bwire binary frames; -proto accepts only "bin" and
// goes in the next change to the repository benchmark, which still passes
// it. See DESIGN.md "Cluster execution".
//
// A worker started with -join ROUTER_ADDR offers itself to a running
// router's client port and joins the ring at the next epoch-aligned cut —
// rolling capacity adds without restarting the stream. SIGTERM on a worker
// announces a graceful leave first, so the router migrates its slots away
// before the process exits.
//
//	streamd -mode worker -addr :9191 &
//	streamd -mode worker -addr :9192 &
//	streamd -mode worker -addr :9193 &
//	streamd -mode router -addr :9090 -workers :9191,:9192,:9193 -replicas 2
//
// cmd/rfidtrace -replay ADDR is the matching load generator for both
// single-process and router addresses.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

func main() {
	// Q1 flag defaults come from the shared config so the daemon and the
	// rfidtrace -wire offline reference can never disagree silently.
	def := server.DefaultQ1Config()
	mode := flag.String("mode", "server", "server (single-process), worker (cluster worker), or router (cluster front end)")
	addr := flag.String("addr", "127.0.0.1:9090", "TCP listen address for the JSON-lines protocol")
	httpAddr := flag.String("http", "", "HTTP listen address for /statsz and /debug/pprof/ (empty disables)")
	query := flag.String("query", "q1", "query plan to serve: q1 (fire code), q2 (flammable co-location), quantile (per-area weight quantile), or topk (top-k dominating)")
	shards := flag.Int("shards", 2, "shard-parallel instances per eligible box (0 = unsharded; server mode only)")
	windowMS := flag.Int64("window", int64(def.WindowMS), "q1 window Range in ms")
	slideMS := flag.Int64("slide", 0, "q1 window Slide in ms (0 = tumbling)")
	threshold := flag.Float64("threshold", def.ThresholdLbs, "q1 weight threshold in pounds / q2 temperature threshold in °C (q2 default 60)")
	areaFt := flag.Float64("area-ft", def.AreaFt, "q1 grouping cell size in feet")
	minProb := flag.Float64("min-prob", def.MinAlertProb, "q1 alert confidence floor / q2 existence floor (q2 default 0.05)")
	level := flag.Float64("level", 0.5, "quantile level q in (0,1] (-query quantile)")
	topK := flag.Int("k", 3, "ranks to report (-query topk)")
	queueCap := flag.Int("queue", 1024, "ingest queue capacity in tuples")
	policyName := flag.String("policy", "block", "backpressure policy when the queue fills: block or drop-oldest")
	buffer := flag.Int("buffer", 128, "per-box channel buffer of the live executor")
	flushEvery := flag.Duration("flush-every", stream.DefaultFlushEvery, "idle flush cadence bounding quiet-stream alert latency")
	dataDir := flag.String("data-dir", "", "checkpoint directory for crash-safe durable state (empty disables; server and router modes)")
	ckptEvery := flag.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint cadence: plan checkpoints with -data-dir (server mode), cluster checkpoints with -replicas 2 (router mode)")
	once := flag.Bool("once", false, "exit after the first end-of-stream drain")
	workersFlag := flag.String("workers", "", "router mode: comma-separated worker addresses (slot i = i-th address)")
	slots := flag.Int("slots", 0, "router mode: logical key slots (0 = one per initial worker; more lets joiners take load)")
	replicas := flag.Int("replicas", 1, "router mode: per-key copy count (2 dual-writes each tuple to the owner's ring successor for failover)")
	vnodes := flag.Int("vnodes", 0, "router mode: ring virtual nodes per weight unit (0 = default)")
	weightsFlag := flag.String("weights", "", "router mode: comma-separated per-worker ring weights (arity must match -workers)")
	pingEvery := flag.Duration("ping-every", time.Second, "router mode: worker liveness-probe cadence (0 disables)")
	joinAddr := flag.String("join", "", "worker mode: router client address to offer this worker to (rolling join)")
	proto := flag.String("proto", "bin", "router mode: router↔worker link protocol; only bin is accepted (clients negotiate per message either way)")
	flag.Parse()
	if *proto != "bin" {
		fatalf(2, "-proto %q not supported: router↔worker links speak only bin", *proto)
	}

	// The threshold and min-prob flags default for q1; q2 falls back to its
	// own documented defaults (60 °C, 0.05) unless set explicitly.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	q1cfg := def
	q1cfg.WindowMS = stream.Time(*windowMS)
	q1cfg.SlideMS = stream.Time(*slideMS)
	q1cfg.ThresholdLbs = *threshold
	q1cfg.AreaFt = *areaFt
	q1cfg.MinAlertProb = *minProb

	// The quantile and top-k configs share the daemon's windowing flags; the
	// threshold flag keeps its query-specific default unless set explicitly.
	q3cfg := server.DefaultQ3Config()
	q3cfg.WindowMS = stream.Time(*windowMS)
	q3cfg.SlideMS = stream.Time(*slideMS)
	q3cfg.Level = *level
	q3cfg.AreaFt = *areaFt
	q3cfg.MinAlertProb = *minProb
	if explicit["threshold"] {
		q3cfg.ThresholdLbs = *threshold
	}
	q4cfg := server.DefaultQ4Config()
	q4cfg.WindowMS = stream.Time(*windowMS)
	q4cfg.SlideMS = stream.Time(*slideMS)
	q4cfg.K = *topK

	// Cluster modes split one query across processes, so they compile from
	// the cluster plan, not the per-process sharded one. Every windowed
	// aggregate on the pluggable-accumulator spine clusters; q2's join does
	// not.
	clusterPlan := func() *uop.ClusterPlan {
		var q *uop.Query
		switch *query {
		case "q1":
			q = uop.BuildQ1(q1cfg)
		case "quantile":
			q = uop.BuildQ3(q3cfg)
		case "topk":
			q = uop.BuildQ4(q4cfg)
		default:
			fatalf(2, "-mode %s supports -query q1, quantile, or topk (q2's join does not cluster; run it with -mode server)", *mode)
		}
		plan, err := q.Cluster()
		if err != nil {
			fatalf(1, "%v", err)
		}
		return plan
	}

	switch *mode {
	case "router":
		rc := routerConfig(clusterPlan(), *addr, *httpAddr, *workersFlag, *weightsFlag, *dataDir,
			*slots, *replicas, *vnodes, *queueCap, *pingEvery, *ckptEvery, *once, explicit)
		runRouter(rc)
		return
	case "worker":
		if *dataDir != "" {
			fatalf(2, "-data-dir applies to -mode server or router (worker durable state is router-coordinated; use -checkpoint-every on the router)")
		}
	case "server":
	default:
		fatalf(2, "unknown -mode %q (want server, worker, or router)", *mode)
	}

	policy, err := server.ParsePolicy(*policyName)
	if err != nil {
		fatalf(2, "%v", err)
	}

	var newPlan func() *uop.Compiled
	cluster := *mode == "worker"
	if cluster {
		newPlan = clusterPlan().CompileWorker
	} else {
		switch *query {
		case "q1":
			cfg := q1cfg
			cfg.Shards = *shards
			newPlan = server.Q1Plan(cfg)
		case "quantile":
			cfg := q3cfg
			cfg.Shards = *shards
			newPlan = server.Q3Plan(cfg)
		case "topk":
			cfg := q4cfg
			cfg.Shards = *shards
			newPlan = server.Q4Plan(cfg)
		case "q2":
			q2 := server.Q2PlanConfig{Shards: *shards}
			if explicit["threshold"] {
				q2.TempThreshold = *threshold
			}
			if explicit["min-prob"] {
				q2.MinProb = *minProb
			}
			newPlan = server.Q2Plan(q2)
		default:
			fatalf(2, "unknown query %q (want q1, q2, quantile, or topk)", *query)
		}
	}

	var store server.Store
	if *dataDir != "" {
		fs, err := server.NewFileStore(*dataDir)
		if err != nil {
			fatalf(1, "%v", err)
		}
		store = fs
	}

	s, err := server.New(server.Config{
		Addr:            *addr,
		HTTPAddr:        *httpAddr,
		NewPlan:         newPlan,
		QueueCap:        *queueCap,
		Policy:          policy,
		Buffer:          *buffer,
		FlushEvery:      *flushEvery,
		Once:            *once,
		Store:           store,
		CheckpointEvery: *ckptEvery,
		Cluster:         cluster,
	})
	if err != nil {
		fatalf(1, "%v", err)
	}
	if cluster {
		fmt.Fprintf(os.Stderr, "streamd: cluster worker (query=%s) on %s, waiting for a router join\n", *query, s.Addr())
		if *joinAddr != "" {
			go offerJoin(*joinAddr, s.Addr().String(), s.Done())
		}
	} else {
		fmt.Fprintf(os.Stderr, "streamd: serving %s (shards=%d, policy=%s) on %s\n",
			*query, *shards, policy, s.Addr())
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "streamd: checkpointing to %s every %v\n", *dataDir, *ckptEvery)
		if st := s.Stats(); st.Checkpoint != nil && st.Checkpoint.LastError != "" {
			fmt.Fprintf(os.Stderr, "streamd: recovery: %s\n", st.Checkpoint.LastError)
		}
	}
	if ha := s.HTTPAddr(); ha != nil {
		fmt.Fprintf(os.Stderr, "streamd: /statsz on http://%s/statsz\n", ha)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-s.Done():
		// -once drain finished (or the engine stopped).
	case <-sig:
		fmt.Fprintln(os.Stderr, "streamd: shutting down (draining open windows)")
		if cluster {
			// Tell the router first so it migrates this worker's slots away
			// at a clean cut instead of failing them over; give the removal
			// round a moment to run before the connection drops.
			s.AnnounceLeave()
			select {
			case <-s.Done():
			case <-time.After(3 * time.Second):
			}
		}
	}
	start := time.Now()
	s.Close()
	st := s.Stats()
	// Cumulative across every epoch served — QueueDropped folds in epochs
	// that finished long before this drain, where the per-epoch queue stat
	// would under-report.
	fmt.Fprintf(os.Stderr,
		"streamd: drained in %v — %d tuples in (%.0f/s), %d alerts out, %d ingest errors, %d queue drops\n",
		time.Since(start).Round(time.Millisecond), st.Ingested, st.TuplesPerS,
		st.Alerts, st.IngestErrors, st.QueueDropped)
	if st.Checkpoint != nil && st.Checkpoint.Count > 0 {
		fmt.Fprintf(os.Stderr, "streamd: final checkpoint: %d bytes, %d checkpoints this run, %d on disk\n",
			st.Checkpoint.LastBytes, st.Checkpoint.Count, len(st.Checkpoint.EpochsOnDisk))
	}
}

// routerConfig assembles and validates the router-mode configuration.
func routerConfig(plan *uop.ClusterPlan, addr, httpAddr, workersFlag, weightsFlag, dataDir string,
	slots, replicas, vnodes, sendBuffer int, pingEvery, ckptEvery time.Duration, once bool,
	explicit map[string]bool) router.Config {
	if workersFlag == "" {
		fatalf(2, "-mode router requires -workers ADDR,ADDR,...")
	}
	workers := strings.Split(workersFlag, ",")
	for i, w := range workers {
		workers[i] = strings.TrimSpace(w)
		if workers[i] == "" {
			fatalf(2, "-workers has an empty address at position %d", i)
		}
	}
	if slots == 0 {
		slots = len(workers)
	}
	var weights []int
	if weightsFlag != "" {
		for _, f := range strings.Split(weightsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fatalf(2, "-weights %q: each weight must be a positive integer", weightsFlag)
			}
			weights = append(weights, v)
		}
		if len(weights) != slots {
			fatalf(2, "-weights has %d entries for %d slots", len(weights), slots)
		}
	}
	var store server.Store
	if dataDir != "" {
		fs, err := server.NewFileStore(dataDir)
		if err != nil {
			fatalf(1, "%v", err)
		}
		store = fs
	}
	// Cluster checkpoints need somewhere to land: a replica to install
	// snapshots on, or a -data-dir to persist the router's own state into.
	// With neither, an explicit cadence is a configuration error, and the
	// 5s server-mode default silently means "off". With -data-dir the
	// default cadence kicks in — a durable router that never checkpoints
	// would recover nothing.
	canCkpt := replicas >= 2 || store != nil
	if explicit["checkpoint-every"] && ckptEvery > 0 && !canCkpt {
		fatalf(2, "-checkpoint-every in router mode needs -replicas 2 or -data-dir (nothing to install or persist)")
	}
	if !canCkpt || (!explicit["checkpoint-every"] && store == nil) {
		ckptEvery = 0
	}
	return router.Config{
		Addr:       addr,
		HTTPAddr:   httpAddr,
		Workers:    workers,
		Slots:      slots,
		Replicas:   replicas,
		Vnodes:     vnodes,
		Weights:    weights,
		Plan:       plan,
		SendBuffer: sendBuffer,
		PingEvery:  pingEvery,
		CkptEvery:  ckptEvery,
		Once:       once,
		Store:      store,
	}
}

// runRouter serves the cluster front end until SIGTERM or the -once drain.
func runRouter(cfg router.Config) {
	r, err := router.New(cfg)
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "streamd: router over %d workers (replicas=%d) on %s\n",
		len(cfg.Workers), cfg.Replicas, r.Addr())
	if n, ok := r.RecoveredEpoch(); ok {
		fmt.Fprintf(os.Stderr, "streamd: router recovered mid-stream epoch %d from its checkpoint blob\n", n)
	}
	if ha := r.HTTPAddr(); ha != nil {
		fmt.Fprintf(os.Stderr, "streamd: /statsz on http://%s/statsz\n", ha)
	}
	if cfg.CkptEvery > 0 {
		fmt.Fprintf(os.Stderr, "streamd: cluster checkpoints every %v\n", cfg.CkptEvery)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-r.Done():
		// -once drain finished.
	case <-sig:
		fmt.Fprintln(os.Stderr, "streamd: router shutting down")
	}
	r.Close()
	st := r.Stats()
	fmt.Fprintf(os.Stderr,
		"streamd: router served %d tuples (%.0f/s), %d alerts, %d failovers, %d checkpoints, %d worker errors\n",
		st.Ingested, st.TuplesPerS, st.Alerts, st.Failovers, st.Checkpoints, st.WorkerErrors)
}

// offerJoin offers this worker to a running router's client port and keeps
// the offer alive: if the connection drops (router restart, network blip)
// it re-offers with backoff. A router that already counts this address as a
// live worker rejects the duplicate offer — harmless; the loop just keeps
// watch until the next disconnect.
func offerJoin(routerAddr, selfAddr string, done <-chan struct{}) {
	delay := 500 * time.Millisecond
	for {
		select {
		case <-done:
			return
		default:
		}
		c, err := net.DialTimeout("tcp", routerAddr, 5*time.Second)
		if err == nil {
			offer, _ := json.Marshal(map[string]string{"kind": "join", "addr": selfAddr})
			c.SetWriteDeadline(time.Now().Add(5 * time.Second))
			_, err = c.Write(append(offer, '\n'))
			c.SetWriteDeadline(time.Time{})
			if err == nil {
				sc := bufio.NewScanner(c)
				sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
				if sc.Scan() {
					var m struct {
						Kind    string `json:"kind"`
						Error   string `json:"error"`
						Version uint64 `json:"version"`
					}
					joined := false
					if json.Unmarshal(sc.Bytes(), &m) == nil {
						if m.Kind == "ok" {
							fmt.Fprintf(os.Stderr, "streamd: joined router %s (ring version %d)\n", routerAddr, m.Version)
							delay = 500 * time.Millisecond
							joined = true
						} else {
							fmt.Fprintf(os.Stderr, "streamd: join offer to %s: %s\n", routerAddr, m.Error)
						}
					}
					if joined {
						// Hold the connection: its close is the re-offer signal.
						for sc.Scan() {
						}
					}
				}
			}
			c.Close()
		}
		select {
		case <-done:
			return
		case <-time.After(delay):
		}
		if delay *= 2; delay > 10*time.Second {
			delay = 10 * time.Second
		}
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "streamd: "+format+"\n", args...)
	os.Exit(code)
}
