package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/server"
)

// client is the whole load generator as the SUT sees it: one ingest
// connection written by the calling goroutine and one subscriber
// connection read by one reader goroutine. Both stay open across epochs.
type client struct {
	ingest  net.Conn
	ingestR *bufio.Reader
	sub     net.Conn
	enc     wireEnc
	// segs delivers one segment per "done" line (capacity 1: the caller
	// takes each epoch's segment before ending the next).
	segs chan *segment
}

// segment is everything the subscriber connection delivered during one
// epoch: the alert lines, back to back, each with its receive time.
type segment struct {
	lines  []byte
	ends   []int // ends[i] is the end offset of line i in lines
	recv   []time.Time
	doneAt time.Time
	// doneAlerts is the count the SUT's "done" line reports.
	doneAlerts uint64
	// stray holds the first non-alert, non-done line, if any.
	stray string
	err   error
}

func (s *segment) count() int { return len(s.ends) }

func (s *segment) line(i int) []byte {
	from := 0
	if i > 0 {
		from = s.ends[i-1]
	}
	return s.lines[from:s.ends[i]]
}

var (
	alertPrefix = []byte(`{"kind":"alert"`)
	donePrefix  = []byte(`{"kind":"done"`)
)

const ioTimeout = 60 * time.Second

// dial connects to a ready SUT front end and subscribes. enc carries the
// ingest connection's encoder state, so bytes it produced earlier may be
// sent on this connection.
func dial(addr string, enc wireEnc) (*client, error) {
	ingest, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sub, err := net.Dial("tcp", addr)
	if err != nil {
		ingest.Close()
		return nil, err
	}
	c := &client{
		ingest:  ingest,
		ingestR: bufio.NewReader(ingest),
		sub:     sub,
		enc:     enc,
		segs:    make(chan *segment, 1),
	}
	subR := bufio.NewReaderSize(sub, 256<<10)
	if err := exchange(sub, subR, server.KindSub, server.KindOK); err != nil {
		ingest.Close()
		sub.Close()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	go c.readAlerts(subR)
	return c, nil
}

// close drops both connections and waits for the reader goroutine, which
// ends on the read error this provokes.
func (c *client) close() {
	c.ingest.Close()
	c.sub.Close()
	for range c.segs {
	}
}

// exchange sends one control line and requires one reply of kind want.
func exchange(conn net.Conn, r *bufio.Reader, kind, want string) error {
	line, err := server.EncodeLine(server.Msg{Kind: kind})
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(ioTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(line); err != nil {
		return err
	}
	reply, err := r.ReadBytes('\n')
	if err != nil {
		return err
	}
	var m server.Msg
	if err := json.Unmarshal(reply, &m); err != nil {
		return fmt.Errorf("bad reply %q: %w", reply, err)
	}
	if m.Kind != want {
		return fmt.Errorf("expected %q, got %s", want, bytes.TrimSpace(reply))
	}
	return nil
}

// ping answers the readiness question: is the front end serving yet.
func ping(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return exchange(conn, bufio.NewReader(conn), server.KindPing, server.KindPong)
}

// readAlerts is the reader goroutine: it stamps every line as it arrives
// and hands a segment over at each "done". It exits on the first read
// error, which close() provokes.
func (c *client) readAlerts(r *bufio.Reader) {
	seg := &segment{}
	for {
		line, err := r.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			seg.err = err
			c.segs <- seg
			close(c.segs)
			return
		}
		switch {
		case bytes.HasPrefix(line, alertPrefix):
			seg.lines = append(seg.lines, line...)
			seg.ends = append(seg.ends, len(seg.lines))
			seg.recv = append(seg.recv, now)
		case bytes.HasPrefix(line, donePrefix):
			var m server.Msg
			if err := json.Unmarshal(line, &m); err != nil {
				seg.stray = string(line)
			}
			seg.doneAlerts = m.AlertCount()
			seg.doneAt = now
			c.segs <- seg
			seg = &segment{}
		default:
			if seg.stray == "" {
				seg.stray = string(line)
			}
		}
	}
}

func (c *client) write(b []byte) error {
	c.ingest.SetWriteDeadline(time.Now().Add(ioTimeout))
	_, err := c.ingest.Write(b)
	return err
}

var endLine = []byte(`{"kind":"end"}` + "\n")

// end closes the epoch: it sends "end", reads the ingest connection's
// replies up to the "ok" that acknowledges it (every "err" before it is a
// tuple the SUT refused), then waits for the subscriber's "done".
func (c *client) end() (seg *segment, rejected int, err error) {
	if err := c.write(endLine); err != nil {
		return nil, 0, fmt.Errorf("send end: %w", err)
	}
	c.ingest.SetReadDeadline(time.Now().Add(ioTimeout))
	for {
		reply, err := c.ingestR.ReadBytes('\n')
		if err != nil {
			return nil, rejected, fmt.Errorf("end not acknowledged: %w", err)
		}
		var m server.Msg
		if err := json.Unmarshal(reply, &m); err != nil {
			return nil, rejected, fmt.Errorf("bad ingest reply %q: %w", reply, err)
		}
		if m.Kind == server.KindOK {
			break
		}
		rejected++
	}
	select {
	case seg, ok := <-c.segs:
		if !ok {
			return nil, rejected, errors.New("subscriber connection already failed")
		}
		if seg.err != nil {
			return seg, rejected, fmt.Errorf("alert stream: %w", seg.err)
		}
		return seg, rejected, nil
	case <-time.After(ioTimeout):
		return nil, rejected, errors.New("no done line within " + ioTimeout.String())
	}
}
