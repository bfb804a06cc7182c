package server

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Hub fans alert lines out to subscribers. The zero value is not ready:
// use NewHub (the Server embeds one and initializes it in New).
type Hub struct {
	mu      sync.Mutex
	subs    map[*Subscriber]struct{}
	closed  bool
	dropped atomic.Uint64
	// pumps counts live pump goroutines. Every Add happens under mu
	// strictly before closeAll flips closed, so shutdown's Wait can never
	// race a late registration.
	pumps sync.WaitGroup
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: map[*Subscriber]struct{}{}}
}

// Dropped reports lines lost across all subscribers.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

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

// remove reports whether the caller took the subscriber out (and therefore
// owns closing its channel).
func (h *Hub) remove(sub *Subscriber) bool {
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
// sent to outside it: the per-subscriber mutex (sendControl vs Close)
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
		sub.sendControl(line, h)
	}
}

// closeAll detaches every remaining subscriber; their pumps flush queued
// lines and exit. Called once the engine has stopped broadcasting; no
// subscriber can register afterwards. The channel closes happen outside
// the hub lock (the per-subscriber mutex orders them against in-flight
// control sends).
func (h *Hub) closeAll() {
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

// Subscriber is one alert-stream consumer.
type Subscriber struct {
	ch chan []byte
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
// somewhere other than a TCP connection.
func (sub *Subscriber) Lines() <-chan []byte { return sub.ch }

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
		h.dropped.Add(1)
	}
}

// sendControl enqueues a control line ("done", "ok", "err") with a bounded
// wait instead of the drop policy: losing an alert behind a slow reader is
// survivable and counted, but losing "done" would leave a replay client
// waiting forever (and losing the drop *report* with it). A subscriber
// that cannot absorb one line within the wait is beyond saving — the
// pump's write deadline will sever it. The wait holds only this
// subscriber's mutex: a stalled consumer delays its own control lines,
// never the hub lock the engine's broadcast path needs.
func (sub *Subscriber) sendControl(line []byte, h *Hub) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	select {
	case sub.ch <- line:
	case <-time.After(5 * time.Second):
		h.dropped.Add(1)
	}
}

// pump owns the connection's writer after subscription: it streams queued
// lines, flushing whenever the queue momentarily empties (the same
// flush-on-idle rule the engine's batches follow, for the same latency
// reason).
func (h *Hub) pump(c net.Conn, w *bufio.Writer, sub *Subscriber) {
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
