package main

import (
	"fmt"
	"time"

	"repro/internal/rfid"
	"repro/internal/server"
)

// Base-trace shape. The issue sized the trace at 3000 events (≈42k tuples)
// for a three-minute run; the contract's per-run budget is a sixth of that,
// so the trace is halved with the phases. A q3_slide_ckpt epoch then lasts
// ≈1 s and the sat phase still sees several of them.
const (
	traceObjects = 3000
	traceEvents  = 1500
)

// trace is the base pass in wire form, uncompressed event time.
type trace struct {
	msgs []server.Msg
	// events and transform time feed the rfid.transform ledger row.
	events      int
	transformNS int64
}

// genTrace builds the warehouse scan trace and runs it through the T
// operator exactly as cmd/rfidtrace does (50 particles, index + negative
// evidence; seeds seed, seed+1, seed+2), summarizing each location tuple
// onto the wire as [mean, std] Gaussians.
func genTrace(seed int64, objects, events int) *trace {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: objects, Seed: seed, MoveProb: -1})
	tr := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: events, Seed: seed + 1})
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: 50, UseIndex: true, NegativeEvidence: true, Seed: seed + 2,
	})
	out := &trace{events: len(tr.Events)}
	for _, ev := range tr.Events {
		t0 := time.Now()
		lts := tx.Process(ev)
		out.transformNS += time.Since(t0).Nanoseconds()
		for _, lt := range lts {
			out.msgs = append(out.msgs, server.Msg{
				Kind:   server.KindTuple,
				Source: "locations",
				T:      int64(lt.T),
				Keys:   map[string]int64{"tag": lt.TagID},
				Attrs: map[string]server.Attr{
					"x":      server.DistAttr(lt.X),
					"y":      server.DistAttr(lt.Y),
					"z":      server.DistAttr(lt.Z),
					"weight": server.PointAttr(w.Weight(lt.TagID)),
				},
			})
		}
	}
	return out
}

// pass is the base trace as one workload sees it: event time divided by the
// workload's compression factor, plus the shift that places repetition p
// after repetition p-1 on a window boundary.
type pass struct {
	msgs  []server.Msg
	shift int64
}

// newPass compresses event time and computes the repetition shift: the
// trace span rounded up to whole windows, so every repetition starts a
// fresh window exactly where the plan's clock (anchored at the first
// tuple) puts a boundary.
func newPass(tr *trace, compress int64) (*pass, error) {
	if len(tr.msgs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	p := &pass{msgs: make([]server.Msg, len(tr.msgs))}
	for i, m := range tr.msgs {
		m.T /= compress
		p.msgs[i] = m
		if i > 0 && m.T < p.msgs[i-1].T {
			return nil, fmt.Errorf("trace not in event-time order at tuple %d", i)
		}
	}
	span := p.msgs[len(p.msgs)-1].T - p.msgs[0].T
	p.shift = (span/windowMS + 1) * windowMS
	return p, nil
}

// at returns tuple i of the endless repeated stream.
func (p *pass) at(i int) server.Msg {
	m := p.msgs[i%len(p.msgs)]
	m.T += int64(i/len(p.msgs)) * p.shift
	return m
}

// wireEnc turns tuples into ingest bytes for one connection.
type wireEnc interface {
	add(m server.Msg) error
	// take returns the bytes added since the last take.
	take() []byte
}

type jsonEnc struct{ buf []byte }

func (e *jsonEnc) add(m server.Msg) error {
	line, err := server.EncodeLine(m)
	if err != nil {
		return err
	}
	e.buf = append(e.buf, line...)
	return nil
}

func (e *jsonEnc) take() []byte {
	out := e.buf
	e.buf = nil
	return out
}

// binEnc is the bwire client encoder. Schema ids are connection-scoped, so
// one binEnc lives as long as its ingest connection: the first take carries
// the schema frame, later ones only tuple frames.
type binEnc struct{ b *server.BwBatcher }

func (e binEnc) add(m server.Msg) error { return e.b.Add(m) }
func (e binEnc) take() []byte           { return e.b.Take() }

func newEnc(proto string) wireEnc {
	if proto == "bin" {
		return binEnc{server.NewBwBatcher()}
	}
	return &jsonEnc{}
}

// encodeRange encodes stream tuples [from, to) as one buffer.
func encodeRange(enc wireEnc, p *pass, from, to int) ([]byte, error) {
	for i := from; i < to; i++ {
		if err := enc.add(p.at(i)); err != nil {
			return nil, fmt.Errorf("encode tuple %d: %w", i, err)
		}
	}
	return enc.take(), nil
}
