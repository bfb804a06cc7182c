package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
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
	// FlushEvery bounds quiet-graph output latency (see stream.RunLive).
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
	// (see stream.LiveOptions.Barriers); runDone closes when RunLive
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
	cfg    Config
	ln     net.Listener
	httpLn net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// done closes when the engine loop exits (after Once's drain, or on
	// shutdown).
	done chan struct{}

	hub Hub

	mu       sync.Mutex
	ep       *epoch
	eps      []*epoch // recent epochs (pruned), for all-epoch stats
	conns    map[*ConnTrack]struct{}
	shutdown bool
	// prunedDrops accumulates queue drops from epochs pruned out of eps,
	// so the cumulative counter survives epoch turnover.
	prunedDrops uint64

	start      time.Time
	ingested   atomic.Uint64
	ingestErrs atomic.Uint64
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
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = 4096
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		done:  make(chan struct{}),
		conns: map[*ConnTrack]struct{}{},
		start: time.Now(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.hub.subs = map[*Subscriber]struct{}{}
	if cfg.Cluster {
		s.cl = newClusterState(s)
	}
	if cfg.HTTPAddr != "" {
		httpLn, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("server: listen %s: %w", cfg.HTTPAddr, err)
		}
		s.httpLn = httpLn
		mux := http.NewServeMux()
		mux.HandleFunc("/statsz", s.handleStatsz)
		MountPprof(mux)
		srv := &http.Server{Handler: mux}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			srv.Serve(httpLn) // returns when the listener closes
		}()
	}
	s.wg.Add(2)
	go s.engineLoop()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the protocol listener's address (for ":0" configs).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// MountPprof serves the runtime profiles of net/http/pprof — CPU, heap,
// goroutines, execution trace — under /debug/pprof/ on mux, so a profile
// of a running daemon or router is one HTTP GET on its -http listener.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// HTTPAddr returns the /statsz listener's address, or nil.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Done closes when the engine loop has exited — with Config.Once, after the
// first end-of-stream drain completes and the "done" line has been
// broadcast.
func (s *Server) Done() <-chan struct{} { return s.done }

// Close shuts the server down gracefully: ingestion stops, the running
// epoch drains (open windows flush, final alerts reach subscribers,
// followed by a "done" line), and every connection closes.
func (s *Server) Close() error {
	s.cancel()
	s.ln.Close()
	if s.httpLn != nil {
		s.httpLn.Close()
	}
	// The engine must finish its drain (and the final broadcasts) before
	// subscriber channels close; the pumps must then deliver everything
	// queued before the connections close under them.
	<-s.done
	s.hub.CloseAll()
	s.hub.pumps.Wait()
	// The shutdown flag closes the race with acceptLoop: a connection
	// accepted just before the listener closed but not yet registered is
	// closed by acceptLoop itself once it sees the flag, so no handler can
	// linger on a socket nobody closes.
	s.mu.Lock()
	s.shutdown = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
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
// there is nothing (or nothing usable) to recover — a corrupt or
// incompatible checkpoint falls back to a fresh epoch numbered past it,
// leaving the bad file on disk for diagnosis.
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
		err = ep.plan.RestoreFrom(data)
	}
	if err != nil {
		s.noteCkptErr(fmt.Errorf("recover epoch %d: %w", newest, err))
		return newest + 1, true // fresh state, but don't reuse the bad number
	}
	return newest, true
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
	m, err := AlertMsg(t)
	if err != nil {
		s.encodeErrs.Add(1)
		return
	}
	line, err := EncodeLine(m)
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

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ct := TrackConn(c)
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[ct] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(ct)
	}
}

// handleConn reads protocol messages from one connection — JSON lines or
// binary frames, dispatched per message by the magic-byte sniff. Errors
// are strictly per-connection: a malformed message earns an "err" reply
// (always JSON) and the connection (and every other connection, and the
// engine) keeps running.
func (s *Server) handleConn(c *ConnTrack) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	w := bufio.NewWriter(c)
	var sub *Subscriber
	defer func() {
		if sub != nil && s.hub.Remove(sub) {
			sub.Close()
		}
	}()
	// reply writes a control message to the client. Before subscribing it
	// owns the connection's writer; after, the pump goroutine does, so
	// replies ride the subscriber queue instead.
	reply := func(m Msg) {
		line, err := EncodeLine(m)
		if err != nil {
			return
		}
		if sub != nil {
			sub.SendControl(line, &s.hub)
			return
		}
		w.Write(line)
		w.Flush()
	}
	maxLine := 1 << 20
	if s.cl != nil {
		// Cluster "snap" lines carry whole plan checkpoints (base64).
		maxLine = 1 << 26
	}
	wr := NewWireReader(c, maxLine)
	// Binary receive state, created on the connection's first frame.
	var bdec *BwDecoder
	var stScratch []stream.SourceTuple
	// hello records a well-formed BwHello on this connection: a worker
	// serves its part stream only to a peer that announced bwire.
	hello := false
	for {
		line, fr, rerr := wr.Next()
		if rerr != nil {
			// A read error (oversized message, truncated frame, mid-message
			// disconnect) ends the connection, but it still deserves the
			// per-connection error contract: count it and make a best-effort
			// reply before the socket closes, so a client sees why instead
			// of a bare EOF.
			if rerr != io.EOF {
				s.ingestErrs.Add(1)
				c.CountDecodeErr()
				reply(errMsg("read error: %v", rerr))
			}
			return
		}
		if line == nil {
			c.CountFrame()
			if bdec == nil {
				bdec = NewBwDecoder()
			}
			n, err := s.handleFrame(fr, bdec, &stScratch)
			s.ingested.Add(uint64(n))
			if fr.Kind == BwHello && err == nil {
				hello = true
			}
			if err != nil {
				s.ingestErrs.Add(1)
				c.CountDecodeErr()
				reply(errMsg("%v", err))
			}
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		c.CountLine()
		var m Msg
		if err := json.Unmarshal(line, &m); err != nil {
			s.ingestErrs.Add(1)
			c.CountDecodeErr()
			reply(errMsg("bad line: %v", err))
			continue
		}
		switch m.Kind {
		case KindTuple:
			var err error
			if s.cl != nil && (m.Shard != nil || m.Replica) {
				// Routed tuples and replica copies travel only as bwire
				// frames; a JSON line claiming either is refused, never
				// ingested into the own slot.
				err = errors.New("routed and replica tuples must arrive as bwire frames")
			} else {
				err = s.ingest(m)
			}
			if err != nil {
				s.ingestErrs.Add(1)
				reply(errMsg("%v", err))
				continue
			}
			s.ingested.Add(1)
		case KindPing:
			pong := Msg{Kind: KindPong}
			if s.cl != nil {
				pong.Version = s.cl.ringVersion()
			}
			reply(pong)
		case KindJoin, KindSnap, KindPromote, KindReset, KindRelease:
			if s.cl == nil {
				reply(errMsg("%q requires a cluster worker (-mode worker)", m.Kind))
				continue
			}
			replies, err := s.cl.handleControl(m)
			if err != nil {
				s.ingestErrs.Add(1)
				reply(errMsg("%v", err))
				continue
			}
			for _, r := range replies {
				reply(r)
			}
		case KindSub:
			if sub != nil {
				reply(errMsg("already subscribed"))
				continue
			}
			if s.cl != nil && !hello {
				// A worker's subscribers receive BwPart frames; only a
				// peer that announced bwire can read them.
				reply(errMsg("a worker's part stream needs a bwire hello first"))
				continue
			}
			newSub := NewSubscriber(s.cfg.SubBuffer)
			if !s.hub.Add(newSub) {
				reply(errMsg("server shutting down"))
				continue
			}
			// Ack while the handler still owns the writer, then hand it to
			// the pump.
			w.Write(mustLine(Msg{Kind: KindOK}))
			w.Flush()
			sub = newSub
			go s.hub.Pump(c, w, sub)
		case KindEnd:
			ep := s.startedEpoch()
			if ep == nil {
				reply(errMsg("no epoch running"))
				continue
			}
			if s.cl != nil {
				// Mark end-of-epoch first: a promote that arrives after this
				// line must drain its instance inline before acking.
				s.cl.endEpoch()
			}
			ep.queue.Close()
			reply(Msg{Kind: KindOK})
		case KindCkpt:
			if s.cl != nil {
				// Cluster checkpoint: snapshot every hosted slot and reply
				// one ckpt_ack per slot (the router installs them on the
				// slots' replicas).
				replies, err := s.cl.handleControl(m)
				if err != nil {
					reply(errMsg("checkpoint: %v", err))
					continue
				}
				for _, r := range replies {
					reply(r)
				}
				continue
			}
			ep := s.startedEpoch()
			if ep == nil {
				reply(errMsg("no epoch running"))
				continue
			}
			if err := s.requestCheckpoint(ep); err != nil {
				reply(errMsg("checkpoint: %v", err))
				continue
			}
			reply(Msg{Kind: KindOK})
		default:
			s.ingestErrs.Add(1)
			reply(errMsg("unknown kind %q", m.Kind))
		}
	}
}

// handleFrame dispatches one binary frame, returning how many tuples it
// ingested. Frame-shape problems and per-tuple semantic problems alike
// cost one error reply; the connection keeps running.
func (s *Server) handleFrame(fr BwFrame, bdec *BwDecoder, scratch *[]stream.SourceTuple) (int, error) {
	switch fr.Kind {
	case BwHello:
		// The frame's arrival already marked the connection binary; the
		// payload just has to be well-formed.
		return 0, DecodeBwHello(fr.Payload)
	case BwSchemaFrame:
		_, err := bdec.AddSchema(fr.Payload)
		return 0, err
	case BwTuples:
		bts, err := bdec.DecodeTuples(fr.Payload)
		if err != nil {
			return 0, err
		}
		if s.cl != nil {
			return s.cl.handleBwTuples(bts, scratch)
		}
		return s.ingestBatch(bts, scratch)
	case BwClose:
		if s.cl == nil {
			return 0, fmt.Errorf("close frames require a cluster worker (-mode worker)")
		}
		cm, err := DecodeBwClose(fr.Payload)
		if err != nil {
			return 0, err
		}
		return 0, s.cl.handleBwClose(cm)
	default:
		return 0, fmt.Errorf("unknown binary frame kind %#x", fr.Kind)
	}
}

// ingestBatch is the binary ingest fast path: where the JSON path pays an
// epoch lookup, a source lookup, and a queue admission per tuple, a
// 32-tuple frame pays each once. The scratch slice is per-connection and
// reused — SourceTuples are copied into the queue's channel on send.
func (s *Server) ingestBatch(bts []BwTuple, scratch *[]stream.SourceTuple) (int, error) {
	source := sourceName(bts[0].Schema.Source)
	if cap(*scratch) < len(bts) {
		*scratch = make([]stream.SourceTuple, len(bts))
	}
	sts := (*scratch)[:len(bts)]
	for i := range bts {
		u, err := bts[i].UTuple()
		if err != nil {
			return 0, fmt.Errorf("tuple %d: %w", i, err)
		}
		t := core.Wrap(u)
		// Routed cluster tuples carry the router partitioner's global
		// arrival stamp (see ingest); client tuples leave it zero.
		t.Seq = bts[i].Seq
		sts[i] = stream.SourceTuple{T: t}
	}
	// The same between-epochs retry contract as enqueue, batched: on
	// ErrQueueClosed mid-frame the accepted prefix stays accepted and the
	// remainder is re-offered to the next epoch.
	deadline := time.Now().Add(5 * time.Second)
	off := 0
	for {
		ep := s.epoch()
		if ep != nil {
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
			return off, errors.New("engine stopped; no further streams accepted")
		default:
		}
		if time.Now().After(deadline) {
			return off, errors.New("stream draining; retry")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ingest parses and enqueues one tuple line. A tuple that lands in the gap
// between epochs — the previous stream drained, the next plan still
// compiling — waits briefly for the new epoch instead of failing, so back-
// to-back replays never lose their first tuples.
func (s *Server) ingest(m Msg) error {
	u, err := ParseTuple(m)
	if err != nil {
		return err
	}
	t := core.Wrap(u)
	// A zero stamp lets the plan stamp arrival order itself.
	t.Seq = m.Seq
	return s.enqueue(sourceName(m.Source), t)
}

// sourceName resolves a wire source name — either protocol — to a plan
// input stream, defaulting to the Q1 feed.
func sourceName(s string) string {
	if s == "" {
		return "locations"
	}
	return s
}

// enqueue delivers one carrier tuple into the current epoch's ingest queue,
// waiting out the between-epochs gap.
func (s *Server) enqueue(source string, t *stream.Tuple) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep := s.epoch()
		if ep != nil {
			box, port, ok := ep.plan.LookupSource(source)
			if !ok {
				return fmt.Errorf("unknown source %q", source)
			}
			err := ep.queue.Put(s.ctx, stream.SourceTuple{Box: box, Port: port, T: t})
			if !errors.Is(err, ErrQueueClosed) {
				return err
			}
		}
		if s.ctx.Err() != nil {
			return ErrQueueClosed
		}
		select {
		case <-s.done:
			// The engine loop has exited (Once mode, or shutdown): no next
			// epoch is coming, so waiting out the deadline would just hang
			// the client 5 s per tuple.
			return errors.New("engine stopped; no further streams accepted")
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("stream draining; retry")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Pump owns the connection's writer after subscription: it streams queued
// lines, flushing whenever the queue momentarily empties (the same
// flush-on-idle rule the engine's batches follow, for the same latency
// reason).
func (h *Hub) Pump(c net.Conn, w *bufio.Writer, sub *Subscriber) {
	defer h.pumps.Done()
	for line := range sub.ch {
		// Bound each write so a subscriber that stopped reading cannot
		// wedge shutdown behind a full TCP buffer.
		c.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := w.Write(line); err != nil {
			c.Close() // wake the read loop; hub removal happens there
			return
		}
		if len(sub.ch) == 0 {
			if err := w.Flush(); err != nil {
				c.Close()
				return
			}
		}
	}
	w.Flush()
}

// Subscriber is one alert-stream consumer.
type Subscriber struct {
	ch      chan []byte
	dropped atomic.Uint64
	// mu guards closed and serializes bounded-wait control sends against
	// the channel close — per subscriber, so one slow consumer can never
	// hold a lock the engine's alert broadcast needs.
	mu     sync.Mutex
	closed bool
}

// NewSubscriber builds a subscriber whose queue holds buffer lines.
func NewSubscriber(buffer int) *Subscriber {
	return &Subscriber{ch: make(chan []byte, buffer)}
}

// Lines exposes the subscriber's queued lines for consumers that pump them
// somewhere other than a TCP connection (the router's merge feed).
func (sub *Subscriber) Lines() <-chan []byte { return sub.ch }

// Dropped reports lines lost to this subscriber's full queue.
func (sub *Subscriber) Dropped() uint64 { return sub.dropped.Load() }

// Close closes the subscriber's channel exactly once, never while a
// control send is in flight.
func (sub *Subscriber) Close() {
	sub.mu.Lock()
	if !sub.closed {
		sub.closed = true
		close(sub.ch)
	}
	sub.mu.Unlock()
}

// Send enqueues without blocking; a slow subscriber loses alert lines
// (counted) rather than stalling the engine.
func (sub *Subscriber) Send(line []byte, h *Hub) {
	select {
	case sub.ch <- line:
	default:
		sub.dropped.Add(1)
		h.dropped.Add(1)
	}
}

// SendControl enqueues a control line ("done", "ok", "err") with a bounded
// wait instead of the drop policy: losing an alert behind a slow reader is
// survivable and counted, but losing "done" would leave a replay client
// waiting forever (and losing the drop *report* with it). A subscriber
// that cannot absorb one line within the wait is beyond saving — the
// pump's write deadline will sever it. The wait holds only this
// subscriber's mutex: a stalled consumer delays its own control lines,
// never the hub lock the engine's broadcast path needs.
func (sub *Subscriber) SendControl(line []byte, h *Hub) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	select {
	case sub.ch <- line:
	case <-time.After(5 * time.Second):
		sub.dropped.Add(1)
		h.dropped.Add(1)
	}
}

// Hub fans alert lines out to subscribers. The zero value is not ready:
// use NewHub (the Server embeds one and initializes it in New).
type Hub struct {
	mu      sync.Mutex
	subs    map[*Subscriber]struct{}
	closed  bool
	dropped atomic.Uint64
	// pumps counts live pump goroutines. Every Add happens under mu
	// strictly before CloseAll flips closed, so shutdown's Wait can never
	// race a late registration.
	pumps sync.WaitGroup
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: map[*Subscriber]struct{}{}}
}

// Dropped reports lines lost across all subscribers.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// WaitPumps blocks until every pump goroutine has exited; call after
// CloseAll during shutdown.
func (h *Hub) WaitPumps() { h.pumps.Wait() }

// Add registers a subscriber and accounts for its pump; false once the hub
// has shut down.
func (h *Hub) Add(sub *Subscriber) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	h.subs[sub] = struct{}{}
	h.pumps.Add(1)
	return true
}

// Remove reports whether the caller took the subscriber out (and therefore
// owns closing its channel).
func (h *Hub) Remove(sub *Subscriber) bool {
	h.mu.Lock()
	_, ok := h.subs[sub]
	delete(h.subs, sub)
	h.mu.Unlock()
	return ok
}

func (h *Hub) Broadcast(line []byte) {
	h.mu.Lock()
	for sub := range h.subs {
		sub.Send(line, h)
	}
	h.mu.Unlock()
}

// BroadcastControl delivers a control line to every subscriber with the
// bounded-wait policy. Subscribers are snapshotted under the hub lock but
// sent to outside it: the per-subscriber mutex (SendControl vs Close)
// makes the post-snapshot send safe, and a stalled consumer cannot hold
// the hub lock against the engine's alert broadcasts.
func (h *Hub) BroadcastControl(line []byte) {
	h.mu.Lock()
	subs := make([]*Subscriber, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
	}
	h.mu.Unlock()
	for _, sub := range subs {
		sub.SendControl(line, h)
	}
}

// CloseAll detaches every remaining subscriber; their pumps flush queued
// lines and exit. Called once the engine has stopped broadcasting; no
// subscriber can register afterwards. The channel closes happen outside
// the hub lock (the per-subscriber mutex orders them against in-flight
// control sends).
func (h *Hub) CloseAll() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*Subscriber, 0, len(h.subs))
	for sub := range h.subs {
		delete(h.subs, sub)
		subs = append(subs, sub)
	}
	h.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

func (h *Hub) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
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
		Ingested:     s.ingested.Load(),
		IngestErrors: s.ingestErrs.Load(),
		EncodeErrors: s.encodeErrs.Load(),
		Alerts:       s.alerts.Load(),
		Subscribers:  s.hub.Count(),
		SubDropped:   s.hub.dropped.Load(),
	}
	if up > 0 {
		st.TuplesPerS = float64(st.Ingested) / up
	}
	s.mu.Lock()
	cur := s.ep
	eps := append([]*epoch(nil), s.eps...)
	st.QueueDropped = s.prunedDrops
	for c := range s.conns {
		st.Conns = append(st.Conns, c.Statsz())
	}
	s.mu.Unlock()
	sort.Slice(st.Conns, func(i, j int) bool { return st.Conns[i].Remote < st.Conns[j].Remote })
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

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}
