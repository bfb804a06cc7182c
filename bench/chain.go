package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// frameTuples is the ledger's "request": 64 tuples, i.e. two bwire frames
// or 64 JSON lines.
const frameTuples = 64

func drop(*stream.Tuple) {}

// chain is the single-process tuple path, one stage per method, run on one
// goroutine so that stage times add up to the pipeline's wall time.
type chain struct {
	tr *tracer

	decodeName string
	rd         bytes.Reader
	wr         *server.WireReader
	dec        *server.BwDecoder
	scratch    []*stream.Tuple

	q    *server.Queue
	plan *uop.Compiled
	box  *stream.Box
	port int

	hub *server.Hub
	sub *server.Subscriber
	err error
}

func newChain(tr *tracer, proto string) *chain {
	c := &chain{
		tr:         tr,
		decodeName: "server.decode_" + proto,
		dec:        server.NewBwDecoder(),
		q:          server.NewQueue(1024, server.Block),
		plan:       q1Ref(),
		hub:        server.NewHub(),
		sub:        server.NewSubscriber(16),
	}
	c.wr = server.NewWireReader(&c.rd, 0)
	c.box, c.port, _ = c.plan.LookupSource("locations")
	c.hub.Add(c.sub)
	c.plan.OnResult(c.alert)
	return c
}

// decode is the connection handler's read path: WireReader.Next, then
// BwDecoder.DecodeTuples + BwTuple.UTuple for frames, or json.Unmarshal +
// ParseTuple for lines. The result aliases a scratch slice.
func (c *chain) decode(req []byte) ([]*stream.Tuple, error) {
	c.rd.Reset(req)
	out := c.scratch[:0]
	for {
		line, fr, err := c.wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if line != nil {
			var m server.Msg
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, err
			}
			u, err := server.ParseTuple(m)
			if err != nil {
				return nil, err
			}
			out = append(out, core.Wrap(u))
			continue
		}
		switch fr.Kind {
		case server.BwSchemaFrame:
			if _, err := c.dec.AddSchema(fr.Payload); err != nil {
				return nil, err
			}
		case server.BwTuples:
			bts, err := c.dec.DecodeTuples(fr.Payload)
			if err != nil {
				return nil, err
			}
			for i := range bts {
				u, err := bts[i].UTuple()
				if err != nil {
					return nil, err
				}
				out = append(out, core.Wrap(u))
			}
		}
	}
	c.scratch = out
	return out, nil
}

// handOff crosses the ingest queue: Put every tuple, take every tuple.
func (c *chain) handOff(ts []*stream.Tuple) {
	for _, t := range ts {
		if err := c.q.Put(context.Background(), stream.SourceTuple{Box: c.box, Port: c.port, T: t}); err != nil && c.err == nil {
			c.err = err
		}
	}
	for i := range ts {
		ts[i] = (<-c.q.Tuples()).T
	}
}

func (c *chain) push(ts []*stream.Tuple) {
	for _, t := range ts {
		c.plan.PushTuple("locations", t)
	}
}

// alert is the sink: encode the alert line, fan it out, take it off the
// subscriber's channel as the pump would.
func (c *chain) alert(t *stream.Tuple) {
	c.tr.begin("server.alert_encode")
	line, err := encodeAlert(t)
	c.tr.end()
	if err != nil && c.err == nil {
		c.err = err
	}
	c.tr.begin("server.hub")
	c.hub.Broadcast(line)
	<-c.sub.Lines()
	c.tr.end()
}

func encodeAlert(t *stream.Tuple) ([]byte, error) {
	m, err := server.AlertMsg(t)
	if err != nil {
		return nil, err
	}
	return server.EncodeLine(m)
}

// run drives every request through the whole chain, then flushes the plan.
func (c *chain) run(reqs [][]byte) error {
	for _, req := range reqs {
		c.tr.nextFrame()
		c.tr.begin("frame")
		c.tr.begin(c.decodeName)
		ts, err := c.decode(req)
		c.tr.end()
		if err != nil {
			return err
		}
		c.tr.begin("server.queue")
		c.handOff(ts)
		c.tr.end()
		c.tr.begin("uop.push_q1")
		c.push(ts)
		c.tr.end()
		c.tr.end()
	}
	c.tr.nextFrame()
	c.tr.begin("frame")
	c.tr.begin("uop.push_q1")
	c.plan.Close()
	c.tr.end()
	c.tr.end()
	return c.err
}

// requests encodes the pass as ledger requests of frameTuples tuples.
func requests(proto string, p *pass) (reqs [][]byte, total int, err error) {
	enc := newEnc(proto)
	n := len(p.msgs)
	for from := 0; from < n; from += frameTuples {
		req, err := encodeRange(enc, p, from, min(from+frameTuples, n))
		if err != nil {
			return nil, 0, err
		}
		reqs = append(reqs, req)
		total += len(req)
	}
	return reqs, total, nil
}
