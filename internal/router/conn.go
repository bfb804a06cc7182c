package router

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/server"
)

// The router's client side runs on server.Edge, the client edge streamd
// serves too; clientConn plugs in what the router does differently: tuples
// are routed, not run, the sub ack carries the resume contract, and
// join/leave change membership. TestClientProtocolConformance pins both
// daemons to one client-protocol script.

// clientConn is the router's side of one client connection: what routing
// needs from each client schema, resolved once per schema.
type clientConn struct {
	r       *Router
	schemas map[*server.BwSchema]clientSchema
}

func (r *Router) newClientConn() *clientConn {
	return &clientConn{r: r, schemas: map[*server.BwSchema]clientSchema{}}
}

// clientSchema is a client schema's routing plan: the router-global link
// schema its tuples travel under, and the position of the plan's key column
// (-1 when the shape has none: such tuples round-robin). link is interned
// under routeMu on first use.
type clientSchema struct {
	link   *server.BwSchema
	keyCol int
}

// schemaFor resolves a client schema's routing plan (routeMu held: the link
// schema is interned in the router-global encoder).
func (c *clientConn) schemaFor(sc *server.BwSchema) clientSchema {
	cs, ok := c.schemas[sc]
	if !ok {
		cs.link, _ = c.r.benc.InternSchema(sc)
		cs.keyCol = -1
		if key := c.r.cfg.Plan.Key; key != "" {
			cs.keyCol = slices.Index(sc.KeyNames, key)
		}
		c.schemas[sc] = cs
	}
	return cs
}

// CheckLine refuses a JSON tuple line of any source but the plan's before
// its tuple is built.
func (c *clientConn) CheckLine(m *server.Msg) error { return c.r.checkSource(m.Source) }

// Ingest routes a decoded TUPLES frame — or a JSON line's one tuple — as a
// frame: its positional tuples go straight to routeFrame, with no
// per-tuple Msg, UTuple or link schema lookup.
func (c *clientConn) Ingest(bts []server.BwTuple) (int, error) { return c.r.routeFrame(c, bts) }

// Frame refuses every frame kind beyond the edge's own: close frames are
// the router's to send, not to receive.
func (c *clientConn) Frame(server.BwFrame) error { return server.ErrUnknownKind }

// Control answers ping, sub, end, ckpt, join and leave.
func (c *clientConn) Control(m *server.Msg) ([]server.Msg, error) {
	r := c.r
	ok := []server.Msg{{Kind: server.KindOK}}
	switch m.Kind {
	case server.KindPing:
		return []server.Msg{{Kind: server.KindPong, Version: r.placeVer.Load()}}, nil
	case server.KindSub:
		// The ack doubles as the resume contract: Seq is how many client
		// tuples this epoch has accepted (resend your input from there),
		// Alerts how many it has emitted (skip that many of the replayed
		// stream's duplicates). Both omitempty — a fresh subscribe still
		// acks the plain {"kind":"ok"}.
		if ep := r.epoch(); ep != nil && !ep.ended.Load() {
			ok[0].Seq = ep.routedSeq.Load()
			ok[0].Alerts = server.AlertsField(ep.alerts.Load())
		}
		return ok, nil
	case server.KindEnd:
		return ok, r.endStream()
	case server.KindCkpt:
		if err := r.clusterCheckpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		return ok, nil
	case server.KindJoin:
		// A worker (or operator) offering a new worker at Addr. The admit
		// runs a full quiesced cut; synchronous is fine — this connection
		// only learns the outcome from the ack anyway.
		if m.Addr == "" {
			return nil, errors.New("join offer needs addr")
		}
		if err := r.admitWorker(m.Addr); err != nil {
			return nil, fmt.Errorf("join %s: %w", m.Addr, err)
		}
		return []server.Msg{{Kind: server.KindOK, Version: r.placeVer.Load()}}, nil
	case server.KindLeave:
		// An administrative drain request for the worker at Addr.
		if m.Addr == "" {
			return nil, errors.New("leave needs addr")
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
			return nil, fmt.Errorf("leave %s: no such worker", m.Addr)
		}
		r.removeWorker(target)
		return []server.Msg{{Kind: server.KindOK, Version: r.placeVer.Load()}}, nil
	}
	return nil, server.ErrUnknownKind
}
