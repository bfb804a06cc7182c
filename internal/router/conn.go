package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/server"
)

// The router's client side speaks the same protocol subset as a
// single-process streamd: tuple, sub, end, ckpt, ping. Clients cannot tell
// the difference — that is the point.

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		c := server.TrackConn(conn)
		r.mu.Lock()
		if r.shutdown {
			r.mu.Unlock()
			c.Close()
			continue
		}
		r.conns[c] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.handleConn(c)
	}
}

func (r *Router) handleConn(c *server.ConnTrack) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.conns, c)
		r.mu.Unlock()
		c.Close()
	}()
	w := bufio.NewWriter(c)
	var sub *server.Subscriber
	defer func() {
		if sub != nil && r.hub.Remove(sub) {
			sub.Close()
		}
	}()
	reply := func(m server.Msg) {
		line, err := server.EncodeLine(m)
		if err != nil {
			return
		}
		if sub != nil {
			sub.SendControl(line, r.hub)
			return
		}
		w.Write(line)
		w.Flush()
	}
	errReply := func(format string, args ...any) {
		reply(server.Msg{Kind: server.KindErr, Error: sprintf(format, args...)})
	}
	wr := server.NewWireReader(c, 1<<20)
	ic := newIngestConn()
	for {
		line, fr, rerr := wr.Next()
		if rerr != nil {
			if rerr != io.EOF {
				r.ingestErrs.Add(1)
				c.CountDecodeErr()
				errReply("read error: %v", rerr)
			}
			break
		}
		if line == nil {
			c.CountFrame()
			n, err := r.handleClientFrame(fr, ic)
			r.ingested.Add(uint64(n))
			if err != nil {
				r.ingestErrs.Add(1)
				c.CountDecodeErr()
				errReply("%v", err)
			}
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		c.CountLine()
		var m server.Msg
		if err := json.Unmarshal(line, &m); err != nil {
			r.ingestErrs.Add(1)
			c.CountDecodeErr()
			errReply("bad line: %v", err)
			continue
		}
		switch m.Kind {
		case server.KindTuple:
			if err := r.routeLine(&m, ic); err != nil {
				r.ingestErrs.Add(1)
				errReply("%v", err)
				continue
			}
			r.ingested.Add(1)
		case server.KindPing:
			reply(server.Msg{Kind: server.KindPong, Version: r.placeVer.Load()})
		case server.KindSub:
			if sub != nil {
				errReply("already subscribed")
				continue
			}
			newSub := server.NewSubscriber(r.cfg.SubBuffer)
			if !r.hub.Add(newSub) {
				errReply("router shutting down")
				continue
			}
			// The ack doubles as the resume contract: Seq is how many
			// client tuples this epoch has accepted (resend your input from
			// there), Alerts how many it has emitted (skip that many of the
			// replayed stream's duplicates). Both omitempty — a fresh
			// subscribe still acks the plain {"kind":"ok"}.
			ack := server.Msg{Kind: server.KindOK}
			if ep := r.epoch(); ep != nil && !ep.ended.Load() {
				ack.Seq = ep.routedSeq.Load()
				ack.Alerts = server.AlertsField(ep.alerts.Load())
			}
			w.Write(mustLine(ack))
			w.Flush()
			sub = newSub
			go r.hub.Pump(c, w, sub)
		case server.KindEnd:
			if err := r.endStream(); err != nil {
				errReply("%v", err)
				continue
			}
			reply(server.Msg{Kind: server.KindOK})
		case server.KindCkpt:
			if err := r.clusterCheckpoint(); err != nil {
				errReply("checkpoint: %v", err)
				continue
			}
			reply(server.Msg{Kind: server.KindOK})
		case server.KindJoin:
			// A worker (or operator) offering a new worker at Addr. The
			// admit runs a full quiesced cut; synchronous is fine — this
			// connection only learns the outcome from the ack anyway.
			if m.Addr == "" {
				errReply("join offer needs addr")
				continue
			}
			if err := r.AdmitWorker(m.Addr); err != nil {
				errReply("join %s: %v", m.Addr, err)
				continue
			}
			reply(server.Msg{Kind: server.KindOK, Version: r.placeVer.Load()})
		case server.KindLeave:
			// An administrative drain request for the worker at Addr.
			if m.Addr == "" {
				errReply("leave needs addr")
				continue
			}
			var target *link
			r.routeMu.Lock()
			for _, l := range r.links {
				if l.alive.Load() && l.addr == m.Addr {
					target = l
					break
				}
			}
			r.routeMu.Unlock()
			if target == nil {
				errReply("leave %s: no such worker", m.Addr)
				continue
			}
			r.removeWorker(target)
			reply(server.Msg{Kind: server.KindOK, Version: r.placeVer.Load()})
		default:
			r.ingestErrs.Add(1)
			errReply("unknown kind %q", m.Kind)
		}
	}
}

// ingestConn is one client connection's ingest state: its binary decoder,
// the encoder that gives its JSON lines positional form, and what routing
// needs from each client schema, resolved once per schema.
type ingestConn struct {
	dec     *server.BwDecoder
	jenc    *server.BwEncoder
	line    [1]server.BwTuple
	schemas map[*server.BwSchema]clientSchema
}

func newIngestConn() *ingestConn {
	return &ingestConn{
		dec:     server.NewBwDecoder(),
		jenc:    server.NewBwEncoder(),
		schemas: map[*server.BwSchema]clientSchema{},
	}
}

// clientSchema is a client schema's routing plan: the router-global link
// schema its tuples travel under, and the position of the plan's key column
// (-1 when the shape has none: such tuples round-robin). link is interned
// under routeMu on first use.
type clientSchema struct {
	link   *server.BwSchema
	keyCol int
}

// handleClientFrame dispatches one binary frame from a client connection,
// returning how many tuples it routed. A TUPLES frame is routed as a frame:
// its decoded positional tuples go straight to routeFrame, with no per-tuple
// Msg, UTuple or link schema lookup.
func (r *Router) handleClientFrame(fr server.BwFrame, ic *ingestConn) (int, error) {
	switch fr.Kind {
	case server.BwHello:
		return 0, server.DecodeBwHello(fr.Payload)
	case server.BwSchemaFrame:
		_, err := ic.dec.AddSchema(fr.Payload)
		return 0, err
	case server.BwTuples:
		bts, err := ic.dec.DecodeTuples(fr.Payload)
		if err != nil {
			return 0, err
		}
		return r.routeFrame(ic, bts)
	default:
		return 0, fmt.Errorf("unknown binary frame kind %#x", fr.Kind)
	}
}

// routeLine routes one JSON tuple line: converted once into the positional
// form a decoded frame has, then routed as a one-tuple frame.
func (r *Router) routeLine(m *server.Msg, ic *ingestConn) error {
	if err := r.checkSource(m.Source); err != nil {
		return err
	}
	if err := ic.jenc.Positional(m, &ic.line[0]); err != nil {
		return err
	}
	_, err := r.routeFrame(ic, ic.line[:])
	return err
}

// schemaFor resolves a client schema's routing plan (routeMu held: the link
// schema is interned in the router-global encoder).
func (ic *ingestConn) schemaFor(r *Router, sc *server.BwSchema) clientSchema {
	cs, ok := ic.schemas[sc]
	if !ok {
		cs.link, _ = r.benc.InternSchema(sc)
		cs.keyCol = -1
		if key := r.cfg.Plan.Key; key != "" {
			cs.keyCol = slices.Index(sc.KeyNames, key)
		}
		ic.schemas[sc] = cs
	}
	return cs
}

func mustLine(m server.Msg) []byte {
	line, err := server.EncodeLine(m)
	if err != nil {
		panic(err) // fixed-shape control messages always encode
	}
	return line
}
