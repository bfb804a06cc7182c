// Package router is the cluster front end: it speaks the same JSON-lines
// wire protocol as a single-process streamd to its clients, but executes
// the plan across worker processes. The router owns exactly the state the
// in-process sharded plan keeps in its partition and merge boxes:
//
//   - A consistent-hash ring (internal/ring) maps each tuple's dedup key to
//     a logical worker slot; keyless tuples round-robin, exactly like the
//     in-process partitioner.
//   - The partition box itself runs here, so the window clock — which must
//     observe the full, unsharded arrival stream — emits the same close
//     sequence a single process would, broadcast to every worker as
//     explicit close punctuations.
//   - Each worker streams back part frames (per-group partial aggregates,
//     then the forwarded close, per window); the router buffers each port's
//     partials until its close arrives and feeds the same deterministic
//     merge the in-process plan uses, so client-facing alerts are
//     byte-identical to single-process execution.
//
// With Replicas >= 2 every routed tuple is dual-written to the owner's
// ring successor, which tails the copies (and all closes). When a worker
// dies, the router promotes the successor: it restores the slot's last
// installed checkpoint, replays the tail suffix, suppresses the window
// ordinals the router already merged, and takes over the slot — the
// subscriber stream continues without a missing or duplicated alert.
//
// Failover keeps the ring itself immutable within a run: routing stays
// stable in *logical slots* (key locality is what dedup correctness needs);
// a slot indirection table redirects a dead slot's traffic to the link that
// hosts it now.
//
// Router↔worker data — routed tuples, replica copies, window closes and
// returning parts — moves only as bwire frames (internal/server/bwire.go);
// control messages (join, reset, sub, ckpt, snap, promote, ping, end and
// their acks) stay JSON lines on the same connection.
package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// Config parameterizes the router.
type Config struct {
	// Addr is the client-facing TCP listen address (":0" picks a port).
	Addr string
	// HTTPAddr, when non-empty, serves GET /statsz and the runtime profiles
	// under /debug/pprof/.
	HTTPAddr string
	// Workers are the worker addresses; index i is logical slot i.
	Workers []string
	// Replicas is the per-key copy count: 1 routes only to the owner, 2
	// dual-writes to the owner's ring successor (values above the worker
	// count are clamped). Only 2 is meaningful today — promotion reads one
	// successor tail.
	Replicas int
	// Vnodes is the ring's virtual-node count per weight unit (0 selects
	// ring.DefaultVnodes).
	Vnodes int
	// Weights are optional per-worker ring weights (len must match Workers
	// when non-nil; a weight w gives that worker w times the key share).
	Weights []int
	// Plan is the cluster split this router executes (uop.Query.Cluster()).
	Plan *uop.ClusterPlan
	// SubBuffer bounds each subscriber's pending-line buffer (default 4096).
	SubBuffer int
	// SendBuffer bounds each worker link's outbound message queue (default
	// 4096); a full queue blocks routing — backpressure, not loss.
	SendBuffer int
	// PingEvery is the worker liveness-probe cadence (0 disables pings;
	// /statsz then reports last_seen from traffic alone).
	PingEvery time.Duration
	// CkptEvery, when positive, drives periodic cluster checkpoints: every
	// interval the router snapshots each worker's slots and installs the
	// snapshots on the slots' replicas, bounding failover replay tails.
	CkptEvery time.Duration
	// Once stops the router after the first end-of-stream drain.
	Once bool
	// DialTimeout bounds the startup dial+handshake per worker, retried
	// with backoff (default 10s).
	DialTimeout time.Duration
	// Slots is the logical slot count (default len(Workers)). More slots
	// than workers gives a mid-stream joiner something to take over: the
	// key ring is built over slots and never changes, so routing — and the
	// alert byte stream — is independent of which host serves each slot.
	Slots int
	// Proto names the router↔worker link encoding. Links always speak
	// bwire, so only "" and "bin" are accepted; "json" is refused. The
	// field (and streamd's -proto flag) stays only because the repository
	// benchmark still passes it, and both go in the next change to that
	// benchmark. Client connections negotiate per message by first byte.
	Proto string
	// Store, when non-nil, makes the router itself crash-safe: every
	// cluster checkpoint round also persists the router's own durable
	// state (window clock, partition sequence, head-merge progress, slot
	// snapshots, membership) as one atomic blob, and a restarted router
	// recovers the newest blob, rewinds its workers to the same cut, and
	// resumes the stream.
	Store server.Store
}

// link is one worker connection: its home slot (the slot it joined with;
// -1 for a mid-stream joiner), its outbound message queue, and its liveness.
type link struct {
	// idx is this link's index in Router.links (stable for the run).
	idx int
	// slot is the worker's home slot from its join handshake, -1 for a
	// slotless joiner. Which slots the link actually serves is routeSlot.
	slot int
	// member is this host's placement-ring id ("h<n>").
	member string
	addr   string
	// conn is nil for a stub link: a recovered-roster worker that could
	// not be re-dialed, registered only so failover can redirect its slots.
	conn net.Conn
	// sendq decouples routing from the socket; the sender goroutine drains
	// it. Closed (by failover) it fails blocked Puts fast.
	sendq *server.QueueOf[[]byte]
	// sentSchemas marks bwire schema ids already shipped down this link
	// (routeMu). A schema frame is prepended, atomically in one sendq
	// entry, to the first tuple frame referencing it — so a failover
	// retry on a fresh link re-sends the schema by construction.
	sentSchemas map[uint64]bool
	alive       atomic.Bool
	// lastSeen is the unix-milli stamp of the last message received.
	lastSeen atomic.Int64
	// pings counts pings enqueued on the link, pongs the answers read back;
	// a worker answers in order, so pongs >= n means ping n came back.
	pings, pongs atomic.Uint64
	version      atomic.Uint64
	routed       atomic.Uint64
	replicated   atomic.Uint64
}

func (l *link) seen() { l.lastSeen.Store(time.Now().UnixMilli()) }

// repoch is one router epoch: a fresh partition (window clock + routing), a
// fresh head graph (merge + post stages), and the per-slot merge-feeding
// state.
type repoch struct {
	n    int
	part stream.Operator
	head *uop.Compiled
	// ended flips when the client's "end" has been processed (the final
	// closes are on the wire); routing then waits for the next epoch.
	ended  atomic.Bool
	alerts atomic.Uint64
	// routedSeq counts client tuples accepted this epoch — the resume
	// index a subscriber ack reports, so a reconnecting load generator
	// knows which suffix of its input a recovered router still needs.
	routedSeq atomic.Uint64
	// closeLog records every window-close punctuation the partition clock
	// emitted this epoch (routeMu). A degraded slot's port is fed
	// synthesized closes from this log so the merge keeps flowing.
	closeLog []closePt
	// pending buffers each port's partials until the port's close arrives,
	// then feeds partials+close to the merge atomically — the envelope
	// discipline failover depends on: a half-shipped window from a dead
	// worker is discarded wholesale and re-emitted by its replica.
	pending [][]*stream.Tuple
	// closes counts closes fed to the merge per port: the suppression floor
	// a promotion sends.
	closes []uint64
	// doneNeed tracks links whose end-of-stream "done" is still pending.
	doneNeed map[int]bool
	// pendingPromotes counts promotions issued during the drain whose
	// "promoted" ack is still pending; the epoch cannot finish under one.
	pendingPromotes int
	finished        bool
}

// slotBatch is one slot's open link traffic within a routing hold.
type slotBatch struct {
	own, rep server.TupleBatch
}

// routeCursor is the state one routing hold drives the partition box with:
// the epoch, the client tuple being routed with its link schema and ring
// slot, and the payload-free carrier the box sees (only its timestamp
// matters to the window clock; Route reads slot). emit is built once, so
// routing a tuple allocates nothing but the box's stamped copy.
type routeCursor struct {
	ep      *repoch
	bt      *server.BwTuple
	link    *server.BwSchema
	slot    int
	carrier stream.Tuple
	emit    stream.Emit
}

// closePt is one logged window-close punctuation: the window end and the
// clock's close sequence number.
type closePt struct {
	t   stream.Time
	seq uint64
}

// Router is the cluster front end.
type Router struct {
	cfg    Config
	ring   *ring.Ring
	slotOf map[string]int // ring member id -> slot
	edge   server.Edge

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// done closes after the Once drain (or shutdown).
	done     chan struct{}
	doneOnce sync.Once

	hub   *server.Hub
	links []*link

	// nslots is the logical slot count (fixed for the run: the key ring's
	// member count, the partition width, the head's port count).
	nslots int
	// weights are the per-slot key-ring weights (all 1 unless configured);
	// persisted so a recovered router rebuilds the identical key ring.
	weights []int

	// routeMu orders everything that routes: the partition box, the slot
	// indirection tables, and sendq enqueues (held across blocking Puts —
	// backpressure stalls routing, deliberately). Lock order: routeMu
	// strictly before headMu.
	routeMu sync.Mutex
	// paused stalls routing and end-of-stream during a quiesced cut
	// (checkpoint round, membership change); routeFrame/endStream wait it
	// out instead of erroring.
	paused bool
	// routeSlot maps logical slot -> link index currently serving it
	// (slot % initial workers until a failover or migration redirects it;
	// -1 when unservable).
	routeSlot []int
	// replicaSlot maps logical slot -> link index tailing its dual writes
	// (-1 without replication or after the replica died).
	replicaSlot []int
	// place is the host placement ring ("h<n>" members, one per live
	// worker). It decides which slots move on join/leave — ring.Rebalance
	// diffs against it — while routeSlot stays the serving truth.
	place *ring.Ring
	// memberLink maps placement member id -> link index.
	memberLink map[string]int
	// hostSeq numbers placement members across the router's lifetime.
	hostSeq int
	// slotSnaps holds each slot's snapshot from the last completed
	// checkpoint round — what migrations install and recovery resets to.
	slotSnaps []roundSnap
	// lastMoved is the slot set the last rebalance migrated (statsz).
	lastMoved []int

	// placeVer is the placement membership version: initial worker count,
	// +1 per join, leave, or death. Reported by pong, /statsz, and the
	// join handshake.
	placeVer atomic.Uint64

	// memberMu serializes membership changes (join/leave) end to end.
	memberMu sync.Mutex

	// headMu orders merge feeding and drain state.
	headMu sync.Mutex
	ep     *repoch
	epochs int

	// benc interns tuple schemas for the worker links (routeMu); schema
	// ids are router-global, each link tracks which ones it has seen.
	benc *server.BwEncoder
	// batches holds each slot's open link frames (routeMu): the owner's and
	// the replica's. Every routing hold flushes them before it releases
	// routeMu, and before any close broadcast, so nothing else that takes
	// routeMu — a checkpoint cut, endStream, a membership change — ever
	// sees a half-shipped batch.
	batches []slotBatch
	// cur is the routing cursor (routeMu).
	cur routeCursor

	start      time.Time
	encodeErrs atomic.Uint64
	alerts     atomic.Uint64
	failovers  atomic.Uint64
	degraded   atomic.Bool
	workerErrs atomic.Uint64
	// crashed marks a simulated kill -9 (Crash): no further state is
	// persisted and the on-disk blob survives for recovery.
	crashed atomic.Bool
	// recovered is the epoch resumed from a durable blob at startup
	// (-1: fresh start).
	recovered int
	// movedRanges / rebalances summarize the last ring.Rebalance diff.
	movedRanges atomic.Uint64
	rebalances  atomic.Uint64

	// ckptMu serializes cluster checkpoint rounds.
	ckptMu   sync.Mutex
	ckptSeq  atomic.Uint64
	round    atomic.Pointer[ckptRound]
	ckptN    atomic.Uint64
	ckptErrs atomic.Uint64
	// lastSnap is, per slot, the checkpoint id last confirmed installed on
	// the slot's replica (what a promote names).
	lastSnap []atomic.Uint64
}

// ckptRound tracks one in-flight cluster checkpoint.
type ckptRound struct {
	id uint64
	mu sync.Mutex
	// ackNeed / snapNeed track slots awaiting ckpt_ack / snap_ack.
	ackNeed  map[int]bool
	snapNeed map[int]bool
	// snaps retains each acked slot's snapshot for the round's commit:
	// replica re-acquisition and the router's own persisted state both need
	// the blobs, not just the acks.
	snaps  map[int]roundSnap
	err    error
	done   chan struct{}
	closed bool
}

func (cr *ckptRound) finishLocked() {
	if !cr.closed && len(cr.ackNeed) == 0 && len(cr.snapNeed) == 0 {
		cr.closed = true
		close(cr.done)
	}
}

// memberID names slot i on the ring. Slot-stable ids (not addresses) keep
// the key->slot mapping identical across runs with the same geometry, which
// the equivalence tests pin.
func memberID(i int) string { return "w" + strconv.Itoa(i) }

// hostID names placement member n ("h0", "h1", ...). Host ids are minted
// once per admitted worker and never reused, so ring.Rebalance diffs across
// membership changes are well defined.
func hostID(n int) string { return "h" + strconv.Itoa(n) }

// New dials and joins every worker, binds the client listener, and starts
// routing. It fails fast if any worker cannot be reached within the dial
// budget. With Config.Store set and a recovered blob on disk, the roster,
// slot tables, and stream state come from the blob — a mid-stream restart —
// and each reachable worker is rewound to the blob's checkpoint cut.
func New(cfg Config) (*Router, error) {
	if cfg.Plan == nil {
		return nil, errors.New("router: Config.Plan is required")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("router: Config.Workers is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("router: Config.Addr is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = len(cfg.Workers)
	}
	if cfg.Slots < len(cfg.Workers) {
		return nil, fmt.Errorf("router: %d slots for %d workers (need at least one slot per worker)", cfg.Slots, len(cfg.Workers))
	}
	if cfg.Weights != nil && len(cfg.Weights) != cfg.Slots {
		return nil, fmt.Errorf("router: %d weights for %d workers", len(cfg.Weights), len(cfg.Workers))
	}
	if cfg.SendBuffer <= 0 {
		cfg.SendBuffer = 4096
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Workers) {
		cfg.Replicas = len(cfg.Workers)
	}
	if cfg.Proto != "" && cfg.Proto != "bin" {
		return nil, fmt.Errorf("router: proto %q not supported: worker links speak only bin", cfg.Proto)
	}

	var blob *routerState
	if cfg.Store != nil {
		if b, err := loadNewestState(cfg.Store); err != nil {
			return nil, fmt.Errorf("router: recover: %w", err)
		} else {
			blob = b
		}
	}

	s := cfg.Slots
	weights := make([]int, s)
	for i := range weights {
		weights[i] = 1
		if cfg.Weights != nil {
			weights[i] = cfg.Weights[i]
		}
	}
	if blob != nil {
		s = blob.nslots
		weights = blob.weights
	}
	rg := ring.New(cfg.Vnodes)
	slotOf := make(map[string]int, s)
	for i := 0; i < s; i++ {
		rg.Add(ring.Member{ID: memberID(i), Weight: weights[i]})
		slotOf[memberID(i)] = i
	}

	r := &Router{
		cfg:         cfg,
		ring:        rg,
		slotOf:      slotOf,
		nslots:      s,
		weights:     weights,
		done:        make(chan struct{}),
		hub:         server.NewHub(),
		routeSlot:   make([]int, s),
		replicaSlot: make([]int, s),
		lastSnap:    make([]atomic.Uint64, s),
		slotSnaps:   make([]roundSnap, s),
		place:       ring.New(cfg.Vnodes),
		memberLink:  map[string]int{},
		start:       time.Now(),
		recovered:   -1,
		benc:        server.NewBwEncoder(),
		batches:     make([]slotBatch, s),
	}
	r.cur.emit = r.emitRouted
	if blob != nil {
		r.recovered = blob.n
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())

	var stubs []*link
	if blob == nil {
		w := len(cfg.Workers)
		for i := 0; i < s; i++ {
			r.routeSlot[i] = i % w
			r.replicaSlot[i] = -1
			if cfg.Replicas >= 2 {
				if succ, ok := rg.Successor(memberID(i)); ok {
					if rep := slotOf[succ] % w; rep != r.routeSlot[i] {
						r.replicaSlot[i] = rep
					}
				}
			}
		}
		for i := 0; i < w; i++ {
			r.place.Add(ring.Member{ID: hostID(i)})
			r.memberLink[hostID(i)] = i
		}
		r.hostSeq = w
		r.placeVer.Store(r.place.Version())
		// Dial and handshake every worker before accepting clients: join
		// (home slot + geometry), then subscribe to its part stream. With a
		// Store, a reset-to-empty rides between the two so a worker orphaned
		// by a previous router run cannot leak mid-window state into this one.
		for i, addr := range cfg.Workers {
			var reset *server.ResetBlob
			if cfg.Store != nil {
				reset = &server.ResetBlob{Own: &server.SlotBlob{Slot: i}}
			}
			l, err := r.dialWorker(i, addr, reset)
			if err != nil {
				r.teardownLinks()
				return nil, err
			}
			l.idx = i
			l.member = hostID(i)
			r.links = append(r.links, l)
		}
	} else {
		var err error
		stubs, err = r.recoverLinks(blob)
		if err != nil {
			r.teardownLinks()
			return nil, err
		}
	}

	r.edge = server.Edge{Name: "router", Hub: r.hub, SubBuffer: cfg.SubBuffer, Statsz: func() any { return r.Stats() }}
	if err := r.edge.Listen(cfg.Addr, cfg.HTTPAddr); err != nil {
		r.teardownLinks()
		return nil, err
	}

	var err error
	r.headMu.Lock()
	r.newEpochLocked()
	if blob != nil {
		err = r.restoreEpochLocked(blob)
	}
	r.headMu.Unlock()
	if err != nil {
		r.edge.Close()
		r.teardownLinks()
		return nil, fmt.Errorf("router: recover: %w", err)
	}
	if blob == nil {
		// Slots beyond the worker count start as hosted instances on their
		// home-modulo worker: an aligned promote (floor 0) enqueued before
		// any tuple spawns them fresh.
		r.routeMu.Lock()
		for i := len(cfg.Workers); i < s; i++ {
			r.migrateSlotLocked(r.epoch(), i, r.routeSlot[i], 0, roundSnap{})
		}
		r.routeMu.Unlock()
	}
	// A recovered-roster worker that could not be re-dialed fails over now
	// that the epoch (and its merge floors) is restored.
	for _, l := range stubs {
		r.failLink(l)
	}

	for _, l := range r.links {
		r.startLink(l)
	}
	if cfg.PingEvery > 0 {
		r.wg.Add(1)
		go r.pingLoop()
	}
	if cfg.CkptEvery > 0 {
		r.wg.Add(1)
		go r.ckptLoop()
	}
	r.edge.Serve(func(uint64) server.ClientHandler { return r.newClientConn() })
	return r, nil
}

// startLink spawns the sender/reader pair for a dialed link (no-op for
// stubs and links already failed).
func (r *Router) startLink(l *link) {
	if l.conn == nil {
		return
	}
	r.wg.Add(2)
	go r.linkSender(l)
	go r.linkReader(l)
}

// Addr returns the client listener's address.
func (r *Router) Addr() net.Addr { return r.edge.Addr() }

// HTTPAddr returns the /statsz listener's address, or nil.
func (r *Router) HTTPAddr() net.Addr { return r.edge.HTTPAddr() }

// RecoveredEpoch reports the epoch this router resumed from a durable blob
// at startup, or ok=false for a fresh start.
func (r *Router) RecoveredEpoch() (n int, ok bool) { return r.recovered, r.recovered >= 0 }

// Done closes after the first end-of-stream drain with Config.Once.
func (r *Router) Done() <-chan struct{} { return r.done }

// Close shuts the router down: client connections drain their queued
// lines, worker links close.
func (r *Router) Close() error {
	r.cancel()
	r.edge.Close()
	r.routeMu.Lock()
	links := append([]*link(nil), r.links...)
	r.routeMu.Unlock()
	for _, l := range links {
		l.sendq.Close()
		if l.conn != nil {
			l.conn.Close()
		}
	}
	r.wg.Wait()
	r.doneOnce.Do(func() { close(r.done) })
	return nil
}

// Crash simulates abrupt router termination (kill -9) for recovery tests:
// no further state is persisted and the on-disk blob survives, so a fresh
// Router over the same Store resumes from the last completed round.
func (r *Router) Crash() {
	r.crashed.Store(true)
	r.Close()
}

func (r *Router) teardownLinks() {
	for _, l := range r.links {
		l.sendq.Close()
		if l.conn != nil {
			l.conn.Close()
		}
	}
}

// dialWorker connects, joins, optionally resets, and subscribes one worker
// with retry/backoff inside the dial budget — workers started in parallel
// with the router may still be binding. A non-nil reset rides between join
// and sub, rewinding the worker to a checkpoint cut (or to empty) before
// any of its output can reach this router.
func (r *Router) dialWorker(home int, addr string, reset *server.ResetBlob) (*link, error) {
	deadline := time.Now().Add(r.cfg.DialTimeout)
	delay := 50 * time.Millisecond
	var lastErr error
	for {
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			l, herr := r.handshake(home, addr, c, reset)
			if herr == nil {
				return l, nil
			}
			c.Close()
			err = herr
		}
		lastErr = err
		if time.Now().Add(delay).After(deadline) {
			return nil, fmt.Errorf("router: worker %d (%s): %w", home, addr, lastErr)
		}
		time.Sleep(delay)
		if delay *= 2; delay > time.Second {
			delay = time.Second
		}
	}
}

// handshake performs join [+ reset] + sub synchronously on a fresh worker
// connection.
func (r *Router) handshake(home int, addr string, c net.Conn, reset *server.ResetBlob) (*link, error) {
	bw := bufio.NewWriter(c)
	br := bufio.NewReaderSize(c, 64*1024)
	expect := func(m server.Msg, budget time.Duration) error {
		line, err := server.EncodeLine(m)
		if err != nil {
			return err
		}
		c.SetDeadline(time.Now().Add(budget))
		defer c.SetDeadline(time.Time{})
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		reply, err := br.ReadBytes('\n')
		if err != nil {
			return err
		}
		var rm server.Msg
		if err := json.Unmarshal(reply, &rm); err != nil {
			return err
		}
		if rm.Kind != server.KindOK {
			return fmt.Errorf("%s handshake: %s", m.Kind, rm.Error)
		}
		return nil
	}
	// Announce the binary protocol before join: a worker refuses the
	// part subscription of a connection that sent no hello.
	if _, err := bw.Write(server.EncodeBwHello()); err != nil {
		return nil, err
	}
	s := home
	join := server.Msg{
		Kind:     server.KindJoin,
		Shard:    &s,
		Workers:  r.nslots,
		Replicas: r.cfg.Replicas,
		Version:  r.placeVer.Load(),
	}
	if err := expect(join, 5*time.Second); err != nil {
		return nil, err
	}
	if reset != nil {
		// The worker acks only once the rewound epoch is live, which can
		// wait out an epoch turnover — give it the worker's own 15s budget.
		if err := expect(server.Msg{Kind: server.KindReset, Data: reset.Encode()}, 20*time.Second); err != nil {
			return nil, err
		}
	}
	if err := expect(server.Msg{Kind: server.KindSub}, 5*time.Second); err != nil {
		return nil, err
	}
	l := &link{
		slot:        home,
		addr:        addr,
		conn:        c,
		sendq:       server.NewQueueOf[[]byte](r.cfg.SendBuffer, server.Block),
		sentSchemas: map[uint64]bool{},
	}
	l.alive.Store(true)
	l.seen()
	return l, nil
}

// linkSender drains a worker's outbound queue onto its socket, flushing
// whenever the queue momentarily empties.
func (r *Router) linkSender(l *link) {
	defer r.wg.Done()
	bw := bufio.NewWriterSize(deadlineWriter{l.conn}, 64<<10)
	for frame := range l.sendq.Tuples() {
		if _, err := bw.Write(frame); err != nil {
			r.failLink(l)
			return
		}
		if l.sendq.Depth() == 0 {
			if err := bw.Flush(); err != nil {
				r.failLink(l)
				return
			}
		}
	}
	bw.Flush()
}

// deadlineWriter arms a link's write deadline on each socket write — once
// per flushed burst (or buffer spill), not once per queued frame — so a
// worker that stopped reading cannot wedge its sender forever.
type deadlineWriter struct{ c net.Conn }

func (d deadlineWriter) Write(p []byte) (int, error) {
	d.c.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return d.c.Write(p)
}

// linkReader consumes a worker's reply stream: BwPart frames feed the
// merge, JSON control acks resolve checkpoint/promotion state. Anything
// else — a stray frame kind, a JSON part line — counts as a worker error.
func (r *Router) linkReader(l *link) {
	defer r.wg.Done()
	// ckpt_ack lines carry whole plan checkpoints (base64).
	wr := server.NewWireReader(l.conn, 1<<26)
	var dec core.PartCodec
	for {
		line, fr, err := wr.Next()
		if err != nil {
			break
		}
		if line == nil {
			l.seen()
			if fr.Kind != server.BwPart {
				r.workerErrs.Add(1)
				continue
			}
			slot, data, derr := server.DecodeBwPart(fr.Payload)
			if derr != nil {
				r.workerErrs.Add(1)
				continue
			}
			t, derr := dec.Decode(data)
			if derr != nil {
				r.workerErrs.Add(1)
				continue
			}
			r.feedPart(l, slot, t)
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var m server.Msg
		if err := json.Unmarshal(line, &m); err != nil {
			r.workerErrs.Add(1)
			continue
		}
		l.seen()
		switch m.Kind {
		case server.KindDone:
			r.onWorkerDone(l)
		case server.KindPong:
			l.version.Store(m.Version)
			l.pongs.Add(1)
		case server.KindCkptAck:
			r.onCkptAck(l, m)
		case server.KindSnapAck:
			r.onSnapAck(m)
		case server.KindPromoted:
			r.onPromoted(m)
		case server.KindLeave:
			// Graceful departure: migrate the worker's slots away on the
			// next quiesced cut. Async — the removal round waits on acks
			// this reader must keep consuming.
			go r.removeWorker(l)
		case server.KindOK:
			// late ack (end); nothing to resolve
		default:
			r.workerErrs.Add(1)
		}
	}
	r.failLink(l)
}

// feedPart buffers a worker's partials per port and releases each window to
// the merge atomically when the port's close arrives. Everything below
// headMu: PushTuple runs the merge (and post stages, and alert emission)
// synchronously. t is the decoded payload of a BwPart frame: a partial or
// a forwarded close, decoded by the link's reader outside headMu.
func (r *Router) feedPart(l *link, slot int, t *stream.Tuple) {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	ep := r.ep
	if ep == nil || ep.finished || slot < 0 || slot >= len(ep.pending) {
		return
	}
	if !l.alive.Load() {
		// A straggling part from a link that failover already discarded:
		// the slot's replica re-emits this window in full.
		return
	}
	if _, isClose := stream.WindowCloseOf(t); isClose {
		port := uop.ClusterPort(slot)
		for _, pt := range ep.pending[slot] {
			ep.head.PushTuple(port, pt)
		}
		ep.pending[slot] = nil
		ep.head.PushTuple(port, t)
		ep.closes[slot]++
		return
	}
	ep.pending[slot] = append(ep.pending[slot], t)
}

// emitClientAlert mirrors the single-process server's alert path: encode
// once, broadcast to every subscriber.
func (r *Router) emitClientAlert(ep *repoch, t *stream.Tuple) {
	// A crashed router must go silent, as a crashed worker does (emitPart).
	// Crash cancels the context before the hub closes, and a link-queue Put
	// racing the cancel can drop a tuple batch yet deliver the close behind
	// it (both select arms ready), so a window merged after the crash may
	// be missing tuples. A real kill -9 emits nothing past the kill.
	if r.crashed.Load() {
		return
	}
	line, err := server.AlertLine(t)
	if err != nil {
		r.encodeErrs.Add(1)
		return
	}
	ep.alerts.Add(1)
	r.alerts.Add(1)
	r.hub.Broadcast(line)
}

// newEpochLocked (headMu held) builds a fresh partition + head graph. The
// slot indirection tables persist — a failed-over slot stays on its host.
func (r *Router) newEpochLocked() {
	w := r.nslots
	spec := r.cfg.Plan.Window
	ep := &repoch{
		n: r.epochs,
		part: stream.NewPartition("route", w, stream.PartitionSpec{
			Clock: &spec,
			// The router has already resolved the carrier's ring slot
			// (routeFrame); keyless tuples report none and round-robin.
			Route: func(*stream.Tuple) (int, bool) { return r.cur.slot, r.cur.slot >= 0 },
		}),
		head:     r.cfg.Plan.CompileHead(w),
		pending:  make([][]*stream.Tuple, w),
		closes:   make([]uint64, w),
		doneNeed: map[int]bool{},
	}
	ep.head.OnResult(func(t *stream.Tuple) { r.emitClientAlert(ep, t) })
	r.epochs++
	r.ep = ep
}

// epoch returns the current router epoch.
func (r *Router) epoch() *repoch {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	return r.ep
}

// putFrame enqueues one bwire frame on a link, prepending the schema
// frame — in the same sendq entry, so the pair is atomic across failover —
// the first time this link references the schema. routeMu must be held.
func (r *Router) putFrame(l *link, sc *server.BwSchema, frame []byte) error {
	if !l.sentSchemas[sc.ID] {
		pair := make([]byte, 0, len(sc.Frame())+len(frame))
		pair = append(append(pair, sc.Frame()...), frame...)
		if err := l.sendq.Put(r.ctx, pair); err != nil {
			return err
		}
		l.sentSchemas[sc.ID] = true
		return nil
	}
	return l.sendq.Put(r.ctx, frame)
}

// sendFrame enqueues a frame of n tuples on the link serving logical slot,
// failing the link over (and retrying on the new host) if its queue is
// closed. routeMu must be held. Reports whether the frame was accepted.
func (r *Router) sendFrame(slot int, sc *server.BwSchema, frame []byte, n int) bool {
	for {
		li := r.routeSlot[slot]
		if li < 0 {
			r.degraded.Store(true)
			return false
		}
		l := r.links[li]
		if err := r.putFrame(l, sc, frame); err == nil {
			l.routed.Add(uint64(n))
			return true
		}
		if r.ctx.Err() != nil {
			return false
		}
		// Queue closed: the link died under us; redirect and retry.
		r.failLinkLocked(l)
	}
}

// flushSlotLocked ships one slot's open batches (routeMu held): the owner
// frame first, then the replica frame. If the owner's link dies on Put,
// failover promotes the replica and the owner frame is redirected to it;
// the replica frame is then dropped, since its target serves the slot.
func (r *Router) flushSlotLocked(slot int) {
	b := &r.batches[slot]
	if n := b.own.Len(); n > 0 {
		sc := b.own.Schema()
		r.sendFrame(slot, sc, b.own.Take(), n)
	}
	if n := b.rep.Len(); n > 0 {
		sc, frame := b.rep.Schema(), b.rep.Take()
		rep := r.replicaSlot[slot]
		if rep < 0 || rep == r.routeSlot[slot] || !r.links[rep].alive.Load() {
			return
		}
		if r.putFrame(r.links[rep], sc, frame) == nil {
			r.links[rep].replicated.Add(uint64(n))
		}
	}
}

// flushBatchesLocked ships every open batch, slot by slot (routeMu held).
func (r *Router) flushBatchesLocked() {
	for slot := range r.batches {
		r.flushSlotLocked(slot)
	}
}

// emitRouted handles one partition output under routeMu. A close first
// flushes every open batch — a window's tuples always reach a worker ahead
// of its close — then goes once to every live link (a link hosting several
// slots feeds them all from the one copy). A data tuple joins its slot's
// owner batch and, with replication, the slot's replica batch.
func (r *Router) emitRouted(out *stream.Tuple) {
	ep := r.cur.ep
	if end, ok := stream.WindowCloseOf(out); ok {
		r.flushBatchesLocked()
		seq, _ := stream.CloseSeq(out)
		ep.closeLog = append(ep.closeLog, closePt{t: end, seq: seq})
		r.broadcastToLinks(server.EncodeBwClose(r.cfg.Plan.Source, int64(end), seq))
		// Degraded slots have no worker to forward this close back; feed
		// their merge ports a synthesized one so surviving slots' windows
		// keep completing (their data for this window is lost — documented).
		for slot, li := range r.routeSlot {
			if li < 0 {
				r.synthClose(ep, slot, end, seq)
			}
		}
		return
	}
	slot, ok := out.RouteShard()
	if !ok {
		r.encodeErrs.Add(1)
		return
	}
	b := &r.batches[slot]
	if sc := b.own.Schema(); sc != nil && sc != r.cur.link {
		r.flushSlotLocked(slot) // schema change: one schema per frame
	}
	b.own.Add(r.cur.link, r.cur.bt, out.Seq, slot, false)
	// Replica assignments only ever shrink within a routing hold (failover);
	// flushSlotLocked re-checks before shipping.
	if r.replicaSlot[slot] >= 0 {
		b.rep.Add(r.cur.link, r.cur.bt, out.Seq, slot, true)
	}
}

// synthClose feeds one synthesized window-close to a degraded slot's merge
// port (routeMu held; takes headMu). Half-shipped partials for the slot were
// discarded at failover; anything left is dropped to keep the envelope
// discipline — a degraded window carries no data.
func (r *Router) synthClose(ep *repoch, slot int, end stream.Time, seq uint64) {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	if ep.finished || slot < 0 || slot >= len(ep.pending) {
		return
	}
	ep.pending[slot] = nil
	ep.head.PushTuple(uop.ClusterPort(slot), stream.NewWindowClose(end, seq))
	ep.closes[slot]++
}

// broadcastToLinks enqueues one message — a close frame or a JSON control
// line — on every live link (routeMu held).
func (r *Router) broadcastToLinks(msg []byte) {
	for _, l := range r.links {
		if !l.alive.Load() {
			continue
		}
		if err := l.sendq.Put(r.ctx, msg); err != nil && r.ctx.Err() == nil {
			r.failLinkLocked(l)
		}
	}
}

// checkSource resolves a client tuple's source name (default "locations")
// and refuses any source but the plan's.
func (r *Router) checkSource(source string) error {
	if source == "" {
		source = "locations"
	}
	if source != r.cfg.Plan.Source {
		return fmt.Errorf("unknown source %q", source)
	}
	return nil
}

// routeFrame routes one client frame's decoded tuples (all of one schema)
// under a single routeMu hold, waiting out a quiesced cut or the
// between-epochs gap like the single-process server does. Tuples are
// validated first; the valid prefix is routed and the first invalid
// tuple's error returned, as if each tuple were routed alone. Each tuple's
// ring slot comes from its positional key column; the partition box stamps
// its sequence number and emits the window closes it triggers, and the
// bodies accumulate into per-slot batches that ship before routeMu is
// released.
func (r *Router) routeFrame(c *clientConn, bts []server.BwTuple) (int, error) {
	if err := r.checkSource(bts[0].Schema.Source); err != nil {
		return 0, err
	}
	n := len(bts)
	var verr error
	for i := range bts {
		if err := server.CheckTuple(&bts[i]); err != nil {
			n, verr = i, err
			break
		}
	}
	if n == 0 {
		return 0, verr
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.routeMu.Lock()
		if r.paused {
			// A quiesced cut (checkpoint round or membership change) is in
			// flight; wait it out without burning the retry budget.
			r.routeMu.Unlock()
			deadline = time.Now().Add(5 * time.Second)
		} else {
			ep := r.epoch()
			if ep != nil && !ep.ended.Load() {
				cs := c.schemaFor(bts[0].Schema)
				r.cur.ep, r.cur.link = ep, cs.link
				for i := range bts[:n] {
					bt := &bts[i]
					r.cur.bt, r.cur.slot = bt, -1
					if cs.keyCol >= 0 {
						if owner, ok := r.ring.Owner(bt.Keys[cs.keyCol]); ok {
							r.cur.slot = r.slotOf[owner]
						}
					}
					r.cur.carrier.TS = stream.Time(bt.T)
					ep.part.Process(0, &r.cur.carrier, r.cur.emit)
				}
				r.flushBatchesLocked()
				r.cur.ep, r.cur.bt = nil, nil
				ep.routedSeq.Add(uint64(n))
				r.routeMu.Unlock()
				return n, verr
			}
			r.routeMu.Unlock()
		}
		if r.ctx.Err() != nil {
			return 0, errors.New("router shutting down")
		}
		select {
		case <-r.done:
			return 0, errors.New("router stopped; no further streams accepted")
		default:
		}
		if time.Now().After(deadline) {
			return 0, errors.New("stream draining; retry")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pingLinksLocked enqueues one ping on every live link (routeMu held).
func (r *Router) pingLinksLocked(line []byte) {
	for _, l := range r.links {
		if !l.alive.Load() {
			continue
		}
		if err := l.sendq.Put(r.ctx, line); err != nil {
			if r.ctx.Err() == nil {
				r.failLinkLocked(l)
			}
			continue
		}
		l.pings.Add(1)
	}
}

func mustLine(m server.Msg) []byte {
	line, err := server.EncodeLine(m)
	if err != nil {
		panic(err) // fixed-shape control messages always encode
	}
	return line
}

// awaitLinks is end-of-stream's barrier: ping every live link and wait
// until each has answered or failed over. A pong follows everything routed
// before its ping on that link; a worker that died before the router
// noticed never answers, and its reader fails it over while we wait — so
// the promote reaches the replica ahead of "end", inside the epoch it
// belongs to, instead of racing the replica's epoch turnover. A link that
// stays silent for 5 s is left to the usual failure detection.
func (r *Router) awaitLinks() {
	line := mustLine(server.Msg{Kind: server.KindPing})
	r.routeMu.Lock()
	links := append([]*link(nil), r.links...)
	r.pingLinksLocked(line)
	want := make([]uint64, len(links))
	for i, l := range links {
		want[i] = l.pings.Load()
	}
	r.routeMu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for i, l := range links {
		for l.alive.Load() && l.pongs.Load() < want[i] && r.ctx.Err() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// endStream processes a client "end": wait until every live link has
// answered a ping (awaitLinks), flush the partition (the final window
// closes reach every worker ahead of the end line, in queue order), then
// ask every live worker to drain.
func (r *Router) endStream() error {
	r.awaitLinks()
	// Wait out any quiesced cut first: the final closes must not race a
	// checkpoint or migration pause.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r.routeMu.Lock()
		if !r.paused {
			break
		}
		r.routeMu.Unlock()
		if r.ctx.Err() != nil {
			return errors.New("router shutting down")
		}
		if time.Now().After(deadline) {
			return errors.New("router busy (checkpoint in flight); retry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ep := r.epoch()
	if ep == nil || ep.ended.Swap(true) {
		r.routeMu.Unlock()
		return errors.New("no stream to end")
	}
	r.cur.ep = ep
	ep.part.Flush(r.cur.emit)
	r.cur.ep = nil
	endLine, err := server.EncodeLine(server.Msg{Kind: server.KindEnd})
	if err != nil {
		r.routeMu.Unlock()
		return err
	}
	// Register every awaited "done" before "end" goes out: a worker that
	// drains fast could otherwise answer before it is awaited and let the
	// epoch finish ahead of its own last parts. A link that dies during
	// the broadcast is released by failover.
	r.headMu.Lock()
	for i, l := range r.links {
		if l.alive.Load() {
			ep.doneNeed[i] = true
		}
	}
	r.headMu.Unlock()
	r.broadcastToLinks(endLine)
	r.headMu.Lock()
	r.checkFinishLocked(ep)
	r.headMu.Unlock()
	r.routeMu.Unlock()
	return nil
}

// onWorkerDone records one worker's end-of-stream drain.
func (r *Router) onWorkerDone(l *link) {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	ep := r.ep
	if ep == nil || !ep.ended.Load() {
		return
	}
	delete(ep.doneNeed, l.idx)
	r.checkFinishLocked(ep)
}

// onPromoted resolves a drain-time promotion ack.
func (r *Router) onPromoted(m server.Msg) {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	ep := r.ep
	if ep == nil || ep.pendingPromotes == 0 {
		return
	}
	ep.pendingPromotes--
	r.checkFinishLocked(ep)
}

// checkFinishLocked (headMu held) completes the epoch once the stream has
// ended, every live worker has drained, and no promotion is in flight: the
// client-facing "done" goes out, and the next epoch (or shutdown, with
// Once) begins.
func (r *Router) checkFinishLocked(ep *repoch) {
	if ep.finished || !ep.ended.Load() || len(ep.doneNeed) > 0 || ep.pendingPromotes > 0 {
		return
	}
	ep.finished = true
	// Defensive flush: with every close merged per port the graph is
	// already drained; Close also releases its goroutines' state.
	ep.head.Graph.Close()
	line, err := server.EncodeLine(server.Msg{Kind: server.KindDone, Alerts: server.AlertsField(ep.alerts.Load())})
	if err == nil {
		r.hub.BroadcastControl(line)
	}
	// A cleanly finished stream deletes its durable blob — recovery must
	// never resurrect a drained epoch.
	if r.cfg.Store != nil && !r.crashed.Load() {
		n := ep.n
		go r.cfg.Store.Delete(n)
	}
	if r.cfg.Once {
		r.doneOnce.Do(func() { close(r.done) })
		return
	}
	r.newEpochLocked()
}

// failLink is the unlocked entry to failover (reader/sender error paths).
// The link's queue closes before routeMu is taken: routing may hold
// routeMu while blocked in a Put on this very queue, which nothing drains
// any more — the close fails that Put fast, and sendFrame's redirect runs.
func (r *Router) failLink(l *link) {
	if r.ctx.Err() != nil {
		return
	}
	l.sendq.Close()
	r.routeMu.Lock()
	r.failLinkLocked(l)
	r.routeMu.Unlock()
}

// failLinkLocked (routeMu held) fails a worker link over: every logical
// slot it served is redirected to the slot's replica, which is promoted
// with the router's merge progress (closes[slot]) as the suppression floor
// and the last installed snapshot as the restore point. Idempotent.
func (r *Router) failLinkLocked(l *link) {
	if !l.alive.CompareAndSwap(true, false) {
		return
	}
	l.sendq.Close()
	if l.conn != nil {
		l.conn.Close()
	}
	r.failovers.Add(1)
	// Death is a membership change: the host leaves the placement ring, so
	// later join/leave diffs see the real topology.
	if l.member != "" {
		r.place.Remove(l.member)
		delete(r.memberLink, l.member)
		r.placeVer.Store(r.placeVer.Load() + 1)
	}
	ep := r.epoch()
	for slot, li := range r.routeSlot {
		if li != l.idx {
			continue
		}
		rep := r.replicaSlot[slot]
		if rep >= 0 && (rep == li || !r.links[rep].alive.Load()) {
			rep = -1
		}
		if rep < 0 {
			// No live replica: the slot's keys are unservable until a new
			// worker joins. Catch its merge port up to the clock (the dead
			// worker's unmerged closes never arrive), then keep it fed by
			// the synthesized-close path.
			r.routeSlot[slot] = -1
			r.replicaSlot[slot] = -1
			r.lastSnap[slot].Store(0)
			r.degraded.Store(true)
			if ep != nil {
				r.headMu.Lock()
				ep.pending[slot] = nil
				from := ep.closes[slot]
				log := ep.closeLog
				r.headMu.Unlock()
				for _, cp := range log[min(int(from), len(log)):] {
					r.synthClose(ep, slot, cp.t, cp.seq)
				}
			}
			continue
		}
		var closes uint64
		if ep != nil {
			r.headMu.Lock()
			closes = ep.closes[slot]
			ep.pending[slot] = nil // half-shipped window: replica re-emits it
			r.headMu.Unlock()
		}
		s := slot
		promote := server.Msg{
			Kind:   server.KindPromote,
			Shard:  &s,
			Closes: closes,
			Ckpt:   r.lastSnap[slot].Load(),
		}
		line, err := server.EncodeLine(promote)
		if err != nil {
			r.encodeErrs.Add(1)
			continue
		}
		r.routeSlot[slot] = rep
		// The promoted host is the slot's replica no longer; a checkpoint
		// round (or join) re-acquires one with a fresh snapshot install.
		r.replicaSlot[slot] = -1
		r.lastSnap[slot].Store(0)
		if err := r.links[rep].sendq.Put(r.ctx, line); err != nil {
			// Replica died too; the next sendFrame attempt will cascade.
			continue
		}
		if ep != nil && ep.ended.Load() {
			r.headMu.Lock()
			if !ep.finished {
				ep.pendingPromotes++
			}
			r.headMu.Unlock()
		}
	}
	// Replica assignments pointing at the dead link are void.
	for slot, rep := range r.replicaSlot {
		if rep == l.idx {
			r.replicaSlot[slot] = -1
			r.lastSnap[slot].Store(0)
		}
	}
	// The dead worker sends no "done"; release the drain from waiting on it.
	if ep != nil {
		r.headMu.Lock()
		delete(ep.doneNeed, l.idx)
		r.checkFinishLocked(ep)
		r.headMu.Unlock()
	}
	r.failRound(l)
}

// pause stalls routing (and end-of-stream) for a quiesced cut. Callers hold
// ckptMu, so cuts never overlap; unpause releases the stall.
func (r *Router) pause() {
	r.routeMu.Lock()
	r.paused = true
	r.routeMu.Unlock()
}

func (r *Router) unpause() {
	r.routeMu.Lock()
	r.paused = false
	r.routeMu.Unlock()
}

// clonePlace copies the placement ring (ring.Ring is not thread-safe and
// has no copy method; rebuilding from Members is version-independent, which
// is all Rebalance reads).
func (r *Router) clonePlace() *ring.Ring {
	c := ring.New(r.cfg.Vnodes)
	for _, m := range r.place.Members() {
		c.Add(m)
	}
	return c
}

// recomputeHealthLocked (routeMu held) re-derives the degraded flag from
// the slot table: the cluster is degraded while any slot is unservable.
func (r *Router) recomputeHealthLocked() {
	for _, li := range r.routeSlot {
		if li < 0 {
			r.degraded.Store(true)
			return
		}
	}
	r.degraded.Store(false)
}

// pingLoop probes worker liveness.
func (r *Router) pingLoop() {
	defer r.wg.Done()
	line, err := server.EncodeLine(server.Msg{Kind: server.KindPing})
	if err != nil {
		return
	}
	t := time.NewTicker(r.cfg.PingEvery)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			r.routeMu.Lock()
			r.pingLinksLocked(line)
			r.routeMu.Unlock()
		}
	}
}
