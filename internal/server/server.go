package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/uop"
)

// Config parameterizes the ingest server.
type Config struct {
	// Addr is the TCP listen address for the JSON-lines protocol
	// (host:port; ":0" picks a free port — tests use this).
	Addr string
	// HTTPAddr, when non-empty, serves GET /statsz and the runtime profiles
	// under /debug/pprof/ on a second listener.
	HTTPAddr string
	// NewPlan compiles one fresh diagram per engine epoch (required).
	// Q1Plan/Q2Plan build the standard factories.
	NewPlan func() *uop.Compiled
	// QueueCap bounds the ingest queue (default 1024).
	QueueCap int
	// Policy is the backpressure behavior of a full queue.
	Policy Policy
	// Buffer is the per-box channel buffer of the live executor.
	Buffer int
	// FlushEvery bounds quiet-graph output latency (see stream.LiveOptions).
	FlushEvery time.Duration
	// SubBuffer bounds each subscriber's pending-line buffer; lines beyond
	// it are dropped and counted (default 4096).
	SubBuffer int
	// Once stops the server after the first end-of-stream drain — the
	// replay/smoke-test mode.
	Once bool
	// Store, when non-nil, enables crash-safe durable state: the engine
	// writes periodic checkpoints of the running plan, a final checkpoint
	// on graceful shutdown, and recovers the newest epoch on startup —
	// resuming open windows so post-restart alerts match an uninterrupted
	// run byte for byte.
	Store Store
	// CheckpointEvery is the periodic checkpoint cadence (0 disables the
	// timer; drain/shutdown and client-triggered "ckpt" checkpoints still
	// run whenever Store is set).
	CheckpointEvery time.Duration
	// Cluster runs this server as a cluster worker: a router "join" assigns
	// it a slot, tuples arrive pre-routed with sequence stamps, window
	// closes arrive as explicit close punctuations (all as bwire frames),
	// and plan results ship back as part frames instead of client-facing
	// alerts. NewPlan must compile a worker-side plan
	// (uop.ClusterPlan.CompileWorker).
	Cluster bool
}

// epoch is one continuous run of a freshly compiled plan: the engine serves
// epochs back to back, compiling a new diagram after each end-of-stream
// drain (compiled graphs are single-use).
type epoch struct {
	n      int
	plan   *uop.Compiled
	queue  *Queue
	alerts atomic.Uint64
	// barriers delivers checkpoint functions to the live executor's feeder
	// (see stream.LiveOptions.Barriers); runDone closes when RunLiveOpts
	// returns, releasing anyone waiting to deliver one.
	barriers chan func()
	runDone  chan struct{}
	finished atomic.Bool
	// recovered marks an epoch restored from a checkpoint at startup.
	recovered bool
}

// Server is the TCP/HTTP ingest front end around a continuously running
// compiled plan.
type Server struct {
	cfg  Config
	edge Edge

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// done closes when the engine loop exits (after Once's drain, or on
	// shutdown).
	done chan struct{}

	hub Hub

	mu  sync.Mutex
	ep  *epoch
	eps []*epoch // recent epochs (pruned), for all-epoch stats
	// prunedDrops accumulates queue drops from epochs pruned out of eps,
	// so the cumulative counter survives epoch turnover.
	prunedDrops uint64

	start      time.Time
	encodeErrs atomic.Uint64
	alerts     atomic.Uint64

	// crashed simulates abrupt termination (Crash): checkpointing stops
	// immediately, so only checkpoints already on disk survive.
	crashed atomic.Bool

	ckptMu   sync.Mutex
	ckptLast ckptRecord
	ckptN    atomic.Uint64
	ckptErrs atomic.Uint64

	// cl is the worker-side cluster state (nil unless Config.Cluster).
	cl *clusterState
}

// ckptRecord is the most recent checkpoint's vitals.
type ckptRecord struct {
	at    time.Time
	bytes int
	took  time.Duration
	err   string
}

// New validates the config, binds the listeners, and starts the engine and
// accept loops. Stop with Close (graceful: the running epoch drains).
func New(cfg Config) (*Server, error) {
	if cfg.NewPlan == nil {
		return nil, errors.New("server: Config.NewPlan is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("server: Config.Addr is required")
	}
	s := &Server{
		cfg:   cfg,
		done:  make(chan struct{}),
		start: time.Now(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.hub.subs = map[*Subscriber]struct{}{}
	s.edge = Edge{Name: "server", Hub: &s.hub, SubBuffer: cfg.SubBuffer, Statsz: func() any { return s.Stats() }}
	if cfg.Cluster {
		s.cl = newClusterState(s)
		// Cluster "snap" lines carry whole plan checkpoints (base64).
		s.edge.MaxLine = 1 << 26
		s.edge.Fence = s.fence
		s.edge.SubNeedsHello = true
	}
	if err := s.edge.Listen(cfg.Addr, cfg.HTTPAddr); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.engineLoop()
	s.edge.Serve(func(id uint64) ClientHandler { return &connIngest{s: s, id: id} })
	return s, nil
}

// Addr returns the protocol listener's address (for ":0" configs).
func (s *Server) Addr() net.Addr { return s.edge.Addr() }

// HTTPAddr returns the /statsz listener's address, or nil.
func (s *Server) HTTPAddr() net.Addr { return s.edge.HTTPAddr() }

// Done closes when the engine loop has exited — with Config.Once, after the
// first end-of-stream drain completes and the "done" line has been
// broadcast.
func (s *Server) Done() <-chan struct{} { return s.done }

// Close shuts the server down gracefully: ingestion stops, the running
// epoch drains (open windows flush, final alerts reach subscribers,
// followed by a "done" line), and every connection closes.
func (s *Server) Close() error {
	s.cancel()
	s.edge.stopListening()
	// The engine must finish its drain (and the final broadcasts) before
	// subscriber channels close; the pumps must then deliver everything
	// queued before the connections close under them.
	<-s.done
	s.edge.Close()
	s.wg.Wait()
	return nil
}

// AnnounceLeave broadcasts a graceful-departure notice to this worker's
// subscribers — in cluster mode, the router's link — which responds by
// migrating the worker's slots away and dropping the link. Best-effort: a
// worker with no router attached announces into the void.
func (s *Server) AnnounceLeave() {
	s.hub.BroadcastControl(mustLine(Msg{Kind: KindLeave}))
}

// Crash simulates abrupt process termination (kill -9) for recovery tests:
// checkpointing stops immediately — no final checkpoint is written, so only
// checkpoints already on disk survive — and the in-memory plan state is
// torn down without being persisted. The durable-state guarantee under test
// is exactly this: restarting against the same Store resumes from the last
// completed checkpoint, and replaying the post-checkpoint suffix reproduces
// the uninterrupted run's alerts byte for byte.
func (s *Server) Crash() {
	s.crashed.Store(true)
	s.Close()
}

// engineLoop serves epochs back to back: compile a fresh plan, run it live
// against a fresh ingest queue until the queue closes ("end") or the server
// shuts down, broadcast "done", repeat. Plans are never reused across
// epochs — compiled graphs are single-use.
//
// With a Store configured, the first epoch recovers the newest checkpoint
// on disk (resuming its open windows and epoch number), every epoch writes
// a final checkpoint as part of its drain (before open windows flush, so a
// restore still drains identically), and a cleanly completed stream deletes
// its checkpoint — recovery must never resurrect a finished epoch.
func (s *Server) engineLoop() {
	defer s.wg.Done()
	defer close(s.done)
	n := 0
	tryRecover := s.cfg.Store != nil
	for ; ; n++ {
		ep := &epoch{
			n:        n,
			plan:     s.cfg.NewPlan(),
			queue:    NewQueue(s.cfg.QueueCap, s.cfg.Policy),
			barriers: make(chan func()),
			runDone:  make(chan struct{}),
		}
		if tryRecover {
			tryRecover = false
			if rn, ok := s.recoverEpoch(ep); ok {
				ep.n, n = rn, rn
				ep.recovered = true
			}
		}
		if s.cl != nil {
			// Worker mode: plan results are partial-aggregate tuples and
			// forwarded closes; ship them to the router as BwPart frames
			// instead of alert lines. beginEpoch also resets the per-epoch
			// replica tails and failover instances.
			pe := s.cl.beginEpoch(ep)
			ep.plan.OnResult(func(t *stream.Tuple) { s.cl.emitPart(ep, pe, t) })
		} else {
			ep.plan.OnResult(func(t *stream.Tuple) { s.emitAlert(ep, t) })
		}
		s.mu.Lock()
		s.ep = ep
		s.eps = append(s.eps, ep)
		// Prune: keep the last few epochs for stats, folding evicted queue
		// drops into the cumulative counter.
		for len(s.eps) > 8 {
			s.prunedDrops += s.eps[0].queue.Stats().Dropped
			s.eps = s.eps[1:]
		}
		s.mu.Unlock()
		if s.cfg.Store != nil && s.cfg.CheckpointEvery > 0 {
			s.wg.Add(1)
			go s.periodicCheckpoints(ep)
		}
		err := ep.plan.RunLiveOpts(s.ctx, ep.queue, stream.LiveOptions{
			Buffer:     s.cfg.Buffer,
			FlushEvery: s.cfg.FlushEvery,
			Barriers:   ep.barriers,
			BeforeFlush: func() {
				// The graph is quiescent and open windows have not flushed:
				// the final checkpoint of this epoch. Skipped after Crash —
				// an aborted process writes nothing.
				if s.cfg.Store != nil && !s.crashed.Load() {
					s.writeCheckpoint(ep)
				}
			},
		})
		close(ep.runDone)
		ep.finished.Store(true)
		ep.queue.Close() // idempotent; ensures producers fail fast after a cancel
		if s.cl != nil {
			// Promoted failover instances must drain before "done": the
			// router counts this worker's ports complete only after every
			// hosted slot's final parts are on the wire.
			s.cl.finishEpoch()
		}
		s.hub.BroadcastControl(mustLine(Msg{Kind: KindDone, Alerts: AlertsField(ep.alerts.Load())}))
		if err == nil && s.ctx.Err() == nil && s.cfg.Store != nil {
			// Clean end-of-stream: the epoch is complete, its checkpoint must
			// not be recovered into a fresh restart.
			if derr := s.cfg.Store.Delete(ep.n); derr != nil {
				s.noteCkptErr(derr)
			}
		}
		if err != nil || s.cfg.Once || s.ctx.Err() != nil {
			return
		}
	}
}

// recoverEpoch restores the newest on-disk checkpoint into ep's freshly
// compiled plan. It returns the recovered epoch number, or ok == false when
// there is nothing to recover. A corrupt or incompatible checkpoint falls
// back to a fresh epoch numbered past it, leaving the bad file on disk for
// diagnosis, and the epoch runs on a newly compiled plan (restorePlan).
func (s *Server) recoverEpoch(ep *epoch) (n int, ok bool) {
	epochs, err := s.cfg.Store.List()
	if err != nil {
		s.noteCkptErr(err)
		return 0, false
	}
	if len(epochs) == 0 {
		return 0, false
	}
	newest := epochs[len(epochs)-1]
	data, err := s.cfg.Store.Get(newest)
	if err == nil {
		err = s.restorePlan(ep, data)
	}
	if err != nil {
		s.noteCkptErr(fmt.Errorf("recover epoch %d: %w", newest, err))
		return newest + 1, true // fresh state, but don't reuse the bad number
	}
	return newest, true
}

// restorePlan restores a checkpoint into ep's freshly compiled plan. Boxes
// restore in order, so a restore that fails may leave some of them with
// the blob's state: on error ep gets a newly compiled plan instead.
func (s *Server) restorePlan(ep *epoch, data []byte) error {
	err := ep.plan.RestoreFrom(data)
	if err != nil {
		ep.plan = s.cfg.NewPlan()
	}
	return err
}

// writeCheckpoint snapshots ep's plan and persists it. It must run while
// the graph is quiescent — on the feeder goroutine via a barrier, or in
// BeforeFlush.
func (s *Server) writeCheckpoint(ep *epoch) error {
	start := time.Now()
	data, err := ep.plan.Checkpoint()
	if err == nil {
		err = s.cfg.Store.Put(ep.n, data)
	}
	if err != nil {
		s.noteCkptErr(err)
		return err
	}
	s.ckptN.Add(1)
	s.ckptMu.Lock()
	s.ckptLast = ckptRecord{at: time.Now(), bytes: len(data), took: time.Since(start)}
	s.ckptMu.Unlock()
	return nil
}

func (s *Server) noteCkptErr(err error) {
	s.ckptErrs.Add(1)
	s.ckptMu.Lock()
	s.ckptLast.err = err.Error()
	s.ckptMu.Unlock()
}

// periodicCheckpoints drives the timer-based checkpoint cadence for one
// epoch: each tick delivers a checkpoint function through the barrier
// channel (the feeder drains in-flight tuples, then runs it) and waits for
// it to finish, so ticks can never pile up behind a slow disk.
func (s *Server) periodicCheckpoints(ep *epoch) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-ep.runDone:
			return
		case <-t.C:
			if s.crashed.Load() {
				return
			}
			done := make(chan struct{})
			fn := func() { s.writeCheckpoint(ep); close(done) }
			select {
			case ep.barriers <- fn:
				<-done
			case <-ep.runDone:
				return
			}
		}
	}
}

// requestCheckpoint runs one checkpoint of the current epoch on demand (the
// "ckpt" wire command) and waits for it to complete. It first waits for the
// ingest queue to drain, so the checkpoint provably covers every tuple
// acknowledged to this client before the request — the property the
// crash-recovery tests rely on to know exactly which suffix to replay.
func (s *Server) requestCheckpoint(ep *epoch) error {
	if s.cfg.Store == nil {
		return errors.New("checkpointing disabled (no store configured)")
	}
	deadline := time.Now().Add(10 * time.Second)
	for ep.queue.Depth() > 0 {
		select {
		case <-ep.runDone:
			return errors.New("epoch ended before checkpoint ran")
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("checkpoint timed out waiting for queue drain")
		}
		time.Sleep(200 * time.Microsecond)
	}
	errc := make(chan error, 1)
	fn := func() { errc <- s.writeCheckpoint(ep) }
	select {
	case ep.barriers <- fn:
		select {
		case err := <-errc:
			return err
		case <-ep.runDone:
			return errors.New("epoch ended before checkpoint completed")
		}
	case <-ep.runDone:
		return errors.New("epoch ended before checkpoint ran")
	case <-time.After(10 * time.Second):
		return errors.New("checkpoint request timed out")
	}
}

// emitAlert runs on the sink box's goroutine: encode once, hand the line to
// every subscriber. Encoding failures are counted, never fatal — this
// goroutine is the engine.
func (s *Server) emitAlert(ep *epoch, t *stream.Tuple) {
	line, err := AlertLine(t)
	if err != nil {
		s.encodeErrs.Add(1)
		return
	}
	ep.alerts.Add(1)
	s.alerts.Add(1)
	s.hub.Broadcast(line)
}

func mustLine(m Msg) []byte {
	line, err := EncodeLine(m)
	if err != nil {
		panic(err) // fixed-shape control messages always encode
	}
	return line
}

// epoch returns the current epoch.
func (s *Server) epoch() *epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ep
}

// startedEpoch returns the current epoch, first waiting (bounded, like
// enqueue) for the engine loop to publish one: a control line that
// arrives while the first plan still compiles must not fail. It returns
// nil once the engine has stopped or the wait runs out.
func (s *Server) startedEpoch() *epoch {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ep := s.epoch(); ep != nil {
			return ep
		}
		select {
		case <-s.done:
			return nil
		default:
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// connIngest is the server's side of one client connection (the edge's
// ClientHandler): its accept-order id, which a worker's reset fence
// compares, and reused SourceTuple scratch.
type connIngest struct {
	s       *Server
	id      uint64
	scratch []stream.SourceTuple
}

// CheckLine refuses, on a worker, a JSON line claiming to be a routed
// tuple or a replica copy: those travel only as bwire frames, and are
// never ingested into the own slot.
func (in *connIngest) CheckLine(m *Msg) error {
	if in.s.cl != nil && (m.Shard != nil || m.Replica) {
		return errors.New("routed and replica tuples must arrive as bwire frames")
	}
	return nil
}

// Ingest ingests a batch of decoded tuples, returning how many were
// accepted: a worker routes them by slot, a single-process server feeds
// its plan.
func (in *connIngest) Ingest(bts []BwTuple) (int, error) {
	if in.s.cl != nil {
		return in.s.cl.handleBwTuples(bts, in)
	}
	return in.s.ingestBatch(bts, in)
}

// Frame takes a worker's window-close frames.
func (in *connIngest) Frame(fr BwFrame) error {
	if fr.Kind != BwClose {
		return ErrUnknownKind
	}
	if in.s.cl == nil {
		return errors.New("close frames require a cluster worker (-mode worker)")
	}
	cm, err := DecodeBwClose(fr.Payload)
	if err != nil {
		return err
	}
	return in.s.cl.handleBwClose(cm, in.id)
}

// Control answers ping, sub, end, ckpt and a worker's cluster kinds.
func (in *connIngest) Control(m *Msg) ([]Msg, error) {
	s := in.s
	switch m.Kind {
	case KindPing:
		pong := Msg{Kind: KindPong}
		if s.cl != nil {
			pong.Version = s.cl.ringVersion()
		}
		return []Msg{pong}, nil
	case KindSub:
		return []Msg{{Kind: KindOK}}, nil
	case KindJoin, KindSnap, KindPromote, KindReset, KindRelease:
		if s.cl == nil {
			return nil, fmt.Errorf("%q requires a cluster worker (-mode worker)", m.Kind)
		}
		replies, err := s.cl.handleControl(*m, in.id)
		if err != nil {
			s.edge.ingestErrs.Add(1)
		}
		return replies, err
	case KindEnd:
		ep := s.startedEpoch()
		if ep == nil {
			return nil, errors.New("no epoch running")
		}
		if s.cl != nil {
			// Mark end-of-epoch first: a promote that arrives after this
			// line must drain its instance inline before acking.
			s.cl.endEpoch()
		}
		ep.queue.Close()
		return []Msg{{Kind: KindOK}}, nil
	case KindCkpt:
		if s.cl != nil {
			// Cluster checkpoint: snapshot every hosted slot and reply one
			// ckpt_ack per slot (the router installs them on the slots'
			// replicas).
			replies, err := s.cl.handleControl(*m, in.id)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			return replies, nil
		}
		ep := s.startedEpoch()
		if ep == nil {
			return nil, errors.New("no epoch running")
		}
		if err := s.requestCheckpoint(ep); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		return []Msg{{Kind: KindOK}}, nil
	}
	return nil, ErrUnknownKind
}

// errStaleLink refuses what a superseded connection still delivers.
var errStaleLink = errors.New("stale link: a newer connection has reset this worker")

// fence is the worker's Edge.Fence: it refuses every message a stale
// connection still delivers.
func (s *Server) fence(id uint64) error {
	if s.stale(id) {
		return errStaleLink
	}
	return nil
}

// stale reports whether connection id predates the worker's last reset. A
// recovering router's reset rewinds the worker to its checkpoint cut; the
// dead router's frames still buffered on an older connection must reach
// neither the rewound epoch nor its tails and instances.
func (s *Server) stale(id uint64) bool {
	return s.cl != nil && id < s.cl.fence.Load()
}

// ingestBatch feeds a batch of tuples to the running plan: a batch pays
// one epoch lookup, one source lookup and one queue admission (offer), not
// one per tuple. The scratch slice is per-connection and reused —
// SourceTuples are copied into the queue's channel on send.
func (s *Server) ingestBatch(bts []BwTuple, in *connIngest) (int, error) {
	if cap(in.scratch) < len(bts) {
		in.scratch = make([]stream.SourceTuple, len(bts))
	}
	sts := in.scratch[:len(bts)]
	for i := range bts {
		u, err := bts[i].UTuple()
		if err != nil {
			return 0, fmt.Errorf("tuple %d: %w", i, err)
		}
		t := core.Wrap(u)
		// Routed cluster tuples carry the router partitioner's global
		// arrival stamp; client tuples leave it zero, and the plan stamps
		// arrival order itself.
		t.Seq = bts[i].Seq
		sts[i] = stream.SourceTuple{T: t}
	}
	return s.offer(sourceName(bts[0].Schema.Source), sts, in.id)
}

// sourceName resolves a wire source name — either protocol — to a plan
// input stream, defaulting to the Q1 feed.
func sourceName(s string) string {
	if s == "" {
		return "locations"
	}
	return s
}

// enqueue delivers one carrier tuple from connection id into the current
// epoch's ingest queue.
func (s *Server) enqueue(source string, t *stream.Tuple, id uint64) error {
	_, err := s.offer(source, []stream.SourceTuple{{T: t}}, id)
	return err
}

// offer delivers tuples of one source from connection id into the current
// epoch's ingest queue, returning how many it accepted. It waits out the
// between-epochs gap: on ErrQueueClosed mid-batch the accepted prefix stays
// accepted and the remainder is re-offered to the next epoch.
func (s *Server) offer(source string, sts []stream.SourceTuple, id uint64) (int, error) {
	deadline := time.Now().Add(5 * time.Second)
	off := 0
	for {
		ep := s.epoch()
		if ep != nil {
			// Checked after the epoch lookup: a reset fences before it
			// publishes the rewound epoch, so a stale link never feeds it.
			if s.stale(id) {
				return off, errStaleLink
			}
			box, port, ok := ep.plan.LookupSource(source)
			if !ok {
				return off, fmt.Errorf("unknown source %q", source)
			}
			for i := off; i < len(sts); i++ {
				sts[i].Box, sts[i].Port = box, port
			}
			n, err := ep.queue.PutBatch(s.ctx, sts[off:])
			off += n
			if !errors.Is(err, ErrQueueClosed) {
				return off, err
			}
		}
		if s.ctx.Err() != nil {
			return off, ErrQueueClosed
		}
		select {
		case <-s.done:
			// The engine loop has exited (Once mode, or shutdown): no next
			// epoch is coming, so waiting out the deadline would just hang
			// the client 5 s per message.
			return off, errors.New("engine stopped; no further streams accepted")
		default:
		}
		if time.Now().After(deadline) {
			return off, errors.New("stream draining; retry")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// BoxStatsz is one box's row in the /statsz report.
type BoxStatsz struct {
	Name string `json:"name"`
	// Agg is the pluggable-accumulator kind ("sum", "quantile", "topk")
	// for aggregation boxes — whole, partial, or merge halves alike —
	// and empty for every other operator.
	Agg string `json:"agg,omitempty"`
	In  uint64 `json:"in"`
	Out uint64 `json:"out"`
	// Queue is the box's input-channel depth in batches (live executor
	// snapshot; 0 when idle).
	Queue int `json:"queue"`
}

// EpochStatsz is one epoch's row in the /statsz report: every tracked
// epoch — running or recently finished — reports its queue pressure and
// per-box traffic and channel depths, not just the newest.
type EpochStatsz struct {
	Epoch     int         `json:"epoch"`
	Running   bool        `json:"running"`
	Recovered bool        `json:"recovered,omitempty"`
	Alerts    uint64      `json:"alerts"`
	Queue     QueueStats  `json:"queue"`
	Boxes     []BoxStatsz `json:"boxes"`
}

// CheckpointStatsz is the /statsz checkpoint section.
type CheckpointStatsz struct {
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	// LastUnixMS / LastBytes / LastDurationMS describe the most recent
	// successful checkpoint.
	LastUnixMS     int64   `json:"last_unix_ms,omitempty"`
	LastBytes      int     `json:"last_bytes,omitempty"`
	LastDurationMS float64 `json:"last_duration_ms,omitempty"`
	LastError      string  `json:"last_error,omitempty"`
	// EpochsOnDisk lists the epochs with a checkpoint in the store.
	EpochsOnDisk []int `json:"epochs_on_disk,omitempty"`
}

// Statsz is the /statsz report: engine traffic, queue pressure, and
// throughput. Cumulative rates, smoke-grade — EXPERIMENTS.md records the
// measured numbers. Epoch/Queue/Boxes describe the current epoch; Epochs
// covers every tracked epoch; Checkpoint is present when a Store is
// configured.
type Statsz struct {
	UptimeS      float64           `json:"uptime_s"`
	Epoch        int               `json:"epoch"`
	Ingested     uint64            `json:"ingested"`
	IngestErrors uint64            `json:"ingest_errors"`
	EncodeErrors uint64            `json:"encode_errors"`
	Alerts       uint64            `json:"alerts"`
	TuplesPerS   float64           `json:"tuples_per_s"`
	Queue        QueueStats        `json:"queue"`
	QueueDropped uint64            `json:"queue_dropped_total"`
	Subscribers  int               `json:"subscribers"`
	SubDropped   uint64            `json:"sub_dropped"`
	Boxes        []BoxStatsz       `json:"boxes"`
	Epochs       []EpochStatsz     `json:"epochs,omitempty"`
	Checkpoint   *CheckpointStatsz `json:"checkpoint,omitempty"`
	// Conns is the per-connection protocol section: negotiated proto,
	// message/byte counters, decode errors.
	Conns []ConnStatsz `json:"conns,omitempty"`
	// Cluster is present when the server runs as a cluster worker.
	Cluster *ClusterStatsz `json:"cluster,omitempty"`
}

func epochStatsz(ep *epoch) EpochStatsz {
	row := EpochStatsz{
		Epoch:     ep.n,
		Running:   !ep.finished.Load(),
		Recovered: ep.recovered,
		Alerts:    ep.alerts.Load(),
		Queue:     ep.queue.Stats(),
	}
	depths := ep.plan.Graph.QueueDepths()
	for i, b := range ep.plan.Graph.Boxes() {
		r := BoxStatsz{Name: b.Op.Name(), In: b.Stats().In, Out: b.Stats().Out}
		if ak, ok := b.Op.(interface{ AggKind() string }); ok {
			r.Agg = ak.AggKind()
		}
		if i < len(depths) {
			r.Queue = depths[i]
		}
		row.Boxes = append(row.Boxes, r)
	}
	return row
}

// Stats snapshots the server for monitoring.
func (s *Server) Stats() Statsz {
	up := time.Since(s.start).Seconds()
	st := Statsz{
		UptimeS:      up,
		EncodeErrors: s.encodeErrs.Load(),
		Alerts:       s.alerts.Load(),
		Subscribers:  s.hub.Count(),
		SubDropped:   s.hub.dropped.Load(),
	}
	st.Ingested, st.IngestErrors, st.Conns = s.edge.Stats()
	if up > 0 {
		st.TuplesPerS = float64(st.Ingested) / up
	}
	s.mu.Lock()
	cur := s.ep
	eps := append([]*epoch(nil), s.eps...)
	st.QueueDropped = s.prunedDrops
	s.mu.Unlock()
	for _, ep := range eps {
		row := epochStatsz(ep)
		st.Epochs = append(st.Epochs, row)
		st.QueueDropped += row.Queue.Dropped
		if ep == cur {
			st.Epoch, st.Queue, st.Boxes = row.Epoch, row.Queue, row.Boxes
		}
	}
	if s.cfg.Store != nil {
		ck := &CheckpointStatsz{Count: s.ckptN.Load(), Errors: s.ckptErrs.Load()}
		s.ckptMu.Lock()
		last := s.ckptLast
		s.ckptMu.Unlock()
		if !last.at.IsZero() {
			ck.LastUnixMS = last.at.UnixMilli()
			ck.LastBytes = last.bytes
			ck.LastDurationMS = float64(last.took.Microseconds()) / 1e3
		}
		ck.LastError = last.err
		if epochs, err := s.cfg.Store.List(); err == nil {
			ck.EpochsOnDisk = epochs
		}
		st.Checkpoint = ck
	}
	if s.cl != nil {
		st.Cluster = s.cl.statsz()
	}
	return st
}
