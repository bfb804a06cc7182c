package server

import (
	"bufio"
	"bytes"
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
)

// Edge is the client edge both daemons serve — a single-process streamd or
// cluster worker, and the cluster router: the protocol listener and its
// accept loop, the connection registry, each connection's read loop over
// JSON lines and binary frames, the per-connection error contract, the
// sub handoff to the hub's pump, the ingest counters and the -http
// listener's /statsz and pprof. A daemon fills in the exported fields,
// Listens, and Serves once its own state is ready; what it does with a
// decoded message comes in through a ClientHandler per connection.
type Edge struct {
	// Name names the daemon in listen errors and in the reply to a sub
	// that arrives during shutdown ("server", "router").
	Name string
	// Hub fans the daemon's output out to subscribers. A sub registers
	// there, and the hub's pump then owns the connection's writer.
	Hub *Hub
	// SubBuffer bounds each subscriber's pending-line queue (<= 0: 4096).
	SubBuffer int
	// MaxLine bounds a JSON line and a binary frame payload (<= 0: 1 MiB).
	MaxLine int
	// Statsz is the daemon's report, served as indented JSON at GET /statsz
	// on the -http listener.
	Statsz func() any
	// Fence, when set, vets every message before it is decoded, by the
	// connection's accept-order id: an error refuses the message with one
	// ingest error and its text as the reply (a worker's stale-link fence).
	Fence func(id uint64) error
	// SubNeedsHello refuses a sub until the connection sent a well-formed
	// bwire hello (a worker's subscribers receive binary part frames).
	SubNeedsHello bool

	ln     net.Listener
	httpLn net.Listener
	wg     sync.WaitGroup

	mu       sync.Mutex
	conns    map[*edgeConn]struct{}
	shutdown bool

	ingested   atomic.Uint64
	ingestErrs atomic.Uint64
}

// ClientHandler is a daemon's side of one client connection. The edge
// reads, decodes, counts and replies; the handler decides what a decoded
// message does. Edge.Serve builds one per accepted connection, so a
// handler may keep per-connection state.
type ClientHandler interface {
	// CheckLine vets a JSON tuple line before its tuple is built.
	CheckLine(m *Msg) error
	// Ingest ingests a batch of decoded tuples — a TUPLES frame, or the
	// one tuple of a JSON line CheckLine passed — and returns how many it
	// accepted; on error the accepted prefix stays accepted.
	Ingest(bts []BwTuple) (int, error)
	// Frame handles a binary frame of any kind but hello, schema and
	// tuples.
	Frame(fr BwFrame) error
	// Control answers a JSON line of any kind but tuple with its replies.
	// A sub reaches it only once its subscriber is registered: the replies
	// are the ack, written before the pump takes the connection's writer.
	Control(m *Msg) ([]Msg, error)
}

// ErrUnknownKind is what Frame and Control return for a kind the daemon
// does not serve. The edge replies "unknown kind" (counted as an ingest
// error) or "unknown binary frame kind" in its place.
var ErrUnknownKind = errors.New("unknown kind")

// Listen binds the protocol listener at addr and, when httpAddr is
// non-empty, the -http listener, which starts serving /statsz and the
// runtime profiles at once. Connections are accepted only from Serve on.
func (e *Edge) Listen(addr, httpAddr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: listen %s: %w", e.Name, addr, err)
	}
	e.ln = ln
	e.conns = map[*edgeConn]struct{}{}
	if e.SubBuffer <= 0 {
		e.SubBuffer = 4096
	}
	if httpAddr == "" {
		return nil
	}
	httpLn, err := net.Listen("tcp", httpAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("%s: listen %s: %w", e.Name, httpAddr, err)
	}
	e.httpLn = httpLn
	mux := http.NewServeMux()
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(e.Statsz())
	})
	// The runtime profiles of net/http/pprof — CPU, heap, goroutines,
	// execution trace — so a profile of a running daemon is one HTTP GET.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		srv.Serve(httpLn) // returns when the listener closes
	}()
	return nil
}

// Addr returns the protocol listener's address (for ":0" configs).
func (e *Edge) Addr() net.Addr { return e.ln.Addr() }

// HTTPAddr returns the -http listener's address, or nil.
func (e *Edge) HTTPAddr() net.Addr {
	if e.httpLn == nil {
		return nil
	}
	return e.httpLn.Addr()
}

// Serve starts accepting connections; open builds each one's handler from
// its accept-order id (1, 2, ...).
func (e *Edge) Serve(open func(id uint64) ClientHandler) {
	e.wg.Add(1)
	go e.acceptLoop(open)
}

// Close stops the edge: the listeners close, every subscriber detaches and
// its pump delivers what it had queued, every connection closes, and Close
// returns once the edge's goroutines have exited. A daemon whose output
// must drain first (streamd's engine) calls stopListening, drains, then
// Close.
func (e *Edge) Close() {
	e.stopListening()
	e.Hub.closeAll()
	e.Hub.pumps.Wait()
	// The shutdown flag closes the race with acceptLoop: a connection
	// accepted just before the listener closed but not yet registered is
	// closed by acceptLoop itself once it sees the flag, so no handler can
	// linger on a socket nobody closes.
	e.mu.Lock()
	e.shutdown = true
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// stopListening closes both listeners; it may run more than once.
func (e *Edge) stopListening() {
	e.ln.Close()
	if e.httpLn != nil {
		e.httpLn.Close()
	}
}

// Stats snapshots the edge's counters for the daemon's /statsz: tuples
// ingested, messages refused, and one row per open connection, by remote
// address.
func (e *Edge) Stats() (ingested, ingestErrs uint64, conns []ConnStatsz) {
	ingested, ingestErrs = e.ingested.Load(), e.ingestErrs.Load()
	e.mu.Lock()
	for c := range e.conns {
		conns = append(conns, c.statsz())
	}
	e.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].Remote < conns[j].Remote })
	return ingested, ingestErrs, conns
}

func (e *Edge) acceptLoop(open func(id uint64) ClientHandler) {
	defer e.wg.Done()
	var id uint64
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		id++
		ec := &edgeConn{Conn: c, e: e, id: id, h: open(id), lines: NewLineDecoder(), dec: NewBwDecoder()}
		if a := c.RemoteAddr(); a != nil {
			ec.remote = a.String()
		}
		ec.w = bufio.NewWriter(ec)
		e.mu.Lock()
		if e.shutdown {
			e.mu.Unlock()
			c.Close()
			continue
		}
		e.conns[ec] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.serveConn(ec)
	}
}

// edgeConn is one client connection: the socket, wrapped with the
// counters /statsz reports per connection — negotiated protocol (bin from
// the first binary frame on), message counts by kind, raw bytes both ways,
// decode errors — and its read loop's state.
type edgeConn struct {
	net.Conn
	e      *Edge
	id     uint64 // accept order, from 1
	h      ClientHandler
	remote string

	bytesIn, bytesOut, linesIn, framesIn, decodeErrs atomic.Uint64
	bin                                              atomic.Bool

	// w is the connection's writer: the read loop's until a sub, the
	// subscriber pump's after. pumped closes when that pump returns.
	w      *bufio.Writer
	sub    *Subscriber
	pumped chan struct{}
	lines  *LineDecoder
	dec    *BwDecoder
	// hello records a well-formed bwire hello on the connection.
	hello bool
}

func (ec *edgeConn) Read(p []byte) (int, error) {
	n, err := ec.Conn.Read(p)
	ec.bytesIn.Add(uint64(n))
	return n, err
}

func (ec *edgeConn) Write(p []byte) (int, error) {
	n, err := ec.Conn.Write(p)
	ec.bytesOut.Add(uint64(n))
	return n, err
}

// serveConn reads protocol messages from one connection — JSON lines or
// binary frames, dispatched per message by the magic-byte sniff. Errors
// are strictly per-connection: a malformed message earns an "err" reply
// (always JSON) and the connection (and every other connection, and the
// daemon) keeps running.
func (e *Edge) serveConn(ec *edgeConn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.conns, ec)
		e.mu.Unlock()
		ec.Close()
	}()
	defer func() {
		if ec.sub == nil {
			return
		}
		if e.Hub.remove(ec.sub) {
			ec.sub.Close()
		}
		// The pump owns the writer: let it deliver what it has queued (a
		// read error's reply among it) before the socket closes.
		<-ec.pumped
	}()
	wr := NewWireReader(ec, e.MaxLine)
	for {
		line, fr, rerr := wr.Next()
		if rerr != nil {
			// A read error (oversized message, truncated frame, mid-message
			// disconnect) ends the connection, but it still deserves the
			// per-connection error contract: count it and make a best-effort
			// reply before the socket closes, so a client sees why instead
			// of a bare EOF.
			if rerr != io.EOF {
				ec.refuse("read error: %v", rerr)
			}
			return
		}
		if e.Fence != nil {
			if err := e.Fence(ec.id); err != nil {
				e.ingestErrs.Add(1)
				ec.reply(errMsg("%v", err))
				continue
			}
		}
		if line == nil {
			ec.framesIn.Add(1)
			ec.bin.Store(true)
			n, err := ec.frame(fr)
			e.ingested.Add(uint64(n))
			if err != nil {
				ec.refuse("%v", err)
			}
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		ec.linesIn.Add(1)
		m, err := ec.lines.Decode(line)
		if err != nil {
			ec.refuse("bad line: %v", err)
			continue
		}
		switch m.Kind {
		case KindTuple:
			n, err := ec.tupleLine(m)
			e.ingested.Add(uint64(n))
			if err != nil {
				ec.refuse("%v", err)
			}
		case KindSub:
			ec.subscribe(m)
		default:
			for _, r := range ec.answer(m) {
				ec.reply(r)
			}
		}
	}
}

// reply writes a control message to the client. Before subscribing the
// read loop owns the connection's writer; after, the pump goroutine does,
// so replies ride the subscriber queue instead.
func (ec *edgeConn) reply(m Msg) {
	line, err := EncodeLine(m)
	if err != nil {
		return
	}
	if ec.sub != nil {
		ec.sub.sendControl(line, ec.e.Hub)
		return
	}
	ec.w.Write(line)
	ec.w.Flush()
}

// answer is the handler's reply to a control line: its replies, or one
// "err" for a refusal.
func (ec *edgeConn) answer(m *Msg) []Msg {
	replies, err := ec.h.Control(m)
	if errors.Is(err, ErrUnknownKind) {
		ec.e.ingestErrs.Add(1)
		err = fmt.Errorf("unknown kind %q", m.Kind)
	}
	if err != nil {
		return []Msg{errMsg("%v", err)}
	}
	return replies
}

// refuse answers a malformed or refused message: one ingest error, one
// decode error on the connection, and an "err" reply.
func (ec *edgeConn) refuse(format string, args ...any) {
	ec.e.ingestErrs.Add(1)
	ec.decodeErrs.Add(1)
	ec.reply(errMsg(format, args...))
}

// frame dispatches one binary frame, returning how many tuples it
// ingested. Frame-shape problems and per-tuple semantic problems alike
// cost one error reply; the connection keeps running.
func (ec *edgeConn) frame(fr BwFrame) (int, error) {
	switch fr.Kind {
	case BwHello:
		// The frame's arrival already marked the connection binary; the
		// payload just has to be well-formed.
		err := decodeBwHello(fr.Payload)
		ec.hello = ec.hello || err == nil
		return 0, err
	case BwSchemaFrame:
		_, err := ec.dec.AddSchema(fr.Payload)
		return 0, err
	case BwTuples:
		bts, err := ec.dec.DecodeTuples(fr.Payload)
		if err != nil {
			return 0, err
		}
		return ec.h.Ingest(bts)
	}
	if err := ec.h.Frame(fr); !errors.Is(err, ErrUnknownKind) {
		return 0, err
	}
	return 0, fmt.Errorf("unknown binary frame kind %#x", fr.Kind)
}

// tupleLine ingests the JSON tuple line the line decoder just read exactly
// as a one-tuple TUPLES frame, once the handler has vetted the line.
func (ec *edgeConn) tupleLine(m *Msg) (int, error) {
	if err := ec.h.CheckLine(m); err != nil {
		return 0, err
	}
	bts, err := ec.lines.Tuple()
	if err != nil {
		return 0, err
	}
	return ec.h.Ingest(bts)
}

// subscribe registers the connection as a subscriber, writes the
// handler's ack while the read loop still owns the writer, and hands the
// writer to the hub's pump.
func (ec *edgeConn) subscribe(m *Msg) {
	e := ec.e
	switch {
	case ec.sub != nil:
		ec.reply(errMsg("already subscribed"))
		return
	case e.SubNeedsHello && !ec.hello:
		ec.reply(errMsg("a worker's part stream needs a bwire hello first"))
		return
	}
	sub := NewSubscriber(e.SubBuffer)
	if !e.Hub.Add(sub) {
		ec.reply(errMsg("%s shutting down", e.Name))
		return
	}
	for _, ack := range ec.answer(m) {
		ec.w.Write(mustLine(ack))
	}
	ec.w.Flush()
	ec.sub, ec.pumped = sub, make(chan struct{})
	go func() {
		defer close(ec.pumped)
		e.Hub.pump(ec, ec.w, sub)
	}()
}

// ConnStatsz is one connection's row in the /statsz conns section.
type ConnStatsz struct {
	Remote string `json:"remote"`
	// Proto is the negotiated wire protocol: "json" until the peer's
	// first binary frame, "bin" after (a binary connection may still
	// interleave JSON control lines; LinesIn counts them).
	Proto        string `json:"proto"`
	LinesIn      uint64 `json:"lines_in"`
	FramesIn     uint64 `json:"frames_in"`
	BytesIn      uint64 `json:"bytes_in"`
	BytesOut     uint64 `json:"bytes_out"`
	DecodeErrors uint64 `json:"decode_errors,omitempty"`
}

// statsz snapshots the connection's counters.
func (ec *edgeConn) statsz() ConnStatsz {
	proto := "json"
	if ec.bin.Load() {
		proto = "bin"
	}
	return ConnStatsz{
		Remote:       ec.remote,
		Proto:        proto,
		LinesIn:      ec.linesIn.Load(),
		FramesIn:     ec.framesIn.Load(),
		BytesIn:      ec.bytesIn.Load(),
		BytesOut:     ec.bytesOut.Load(),
		DecodeErrors: ec.decodeErrs.Load(),
	}
}
