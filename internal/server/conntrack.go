package server

import (
	"net"
	"sync/atomic"
)

// ConnTrack wraps a protocol connection with the counters /statsz
// reports per connection: negotiated protocol, message counts by kind,
// raw bytes both ways, and decode errors. The router reuses it for its
// client connections, so a whole cluster's link protocols are auditable
// the same way.
type ConnTrack struct {
	net.Conn
	remote     string
	bytesIn    atomic.Uint64
	bytesOut   atomic.Uint64
	linesIn    atomic.Uint64
	framesIn   atomic.Uint64
	decodeErrs atomic.Uint64
	bin        atomic.Bool
}

// TrackConn wraps an accepted connection.
func TrackConn(c net.Conn) *ConnTrack {
	t := &ConnTrack{Conn: c}
	if a := c.RemoteAddr(); a != nil {
		t.remote = a.String()
	}
	return t
}

func (t *ConnTrack) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.bytesIn.Add(uint64(n))
	return n, err
}

func (t *ConnTrack) Write(p []byte) (int, error) {
	n, err := t.Conn.Write(p)
	t.bytesOut.Add(uint64(n))
	return n, err
}

// CountLine records one received JSON line.
func (t *ConnTrack) CountLine() { t.linesIn.Add(1) }

// CountFrame records one received binary frame and marks the connection's
// negotiated protocol binary.
func (t *ConnTrack) CountFrame() {
	t.framesIn.Add(1)
	t.bin.Store(true)
}

// CountDecodeErr records one malformed message (either protocol).
func (t *ConnTrack) CountDecodeErr() { t.decodeErrs.Add(1) }

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

// Statsz snapshots the connection's counters.
func (t *ConnTrack) Statsz() ConnStatsz {
	proto := "json"
	if t.bin.Load() {
		proto = "bin"
	}
	return ConnStatsz{
		Remote:       t.remote,
		Proto:        proto,
		LinesIn:      t.linesIn.Load(),
		FramesIn:     t.framesIn.Load(),
		BytesIn:      t.bytesIn.Load(),
		BytesOut:     t.bytesOut.Load(),
		DecodeErrors: t.decodeErrs.Load(),
	}
}
