package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// Policy selects what a full ingest queue does with new tuples.
type Policy int

const (
	// Block makes Put wait for space: backpressure propagates through the
	// blocked connection handler into TCP flow control, slowing the client.
	// Nothing is lost; ingest latency grows instead.
	Block Policy = iota
	// DropOldest evicts the oldest queued tuple to admit the new one:
	// bounded staleness for monitoring workloads where the latest readings
	// matter more than completeness. Drops are counted in Stats.
	DropOldest
)

// String renders the policy the way ParsePolicy reads it.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy reads a policy name ("block", "drop-oldest").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	default:
		return Block, fmt.Errorf("unknown backpressure policy %q (want block or drop-oldest)", s)
	}
}

// ErrQueueClosed is returned by Put once the queue has been closed (the
// epoch is draining).
var ErrQueueClosed = errors.New("server: ingest queue closed (stream draining)")

// Queue is the bounded ingest queue between connection handlers and the
// continuously running plan: many producers Put; the engine consumes it as
// a stream.Source. Closing it ends the stream — RunLiveOpts drains
// everything accepted, then flushes the plan.
type Queue = QueueOf[stream.SourceTuple]

// QueueOf is the element-generic form of the bounded queue. The ingest
// path instantiates it with stream.SourceTuple; the cluster router uses
// QueueOf[[]byte] as each worker link's outbound line buffer, reusing the
// same policies and accounting.
type QueueOf[T any] struct {
	ch   chan T
	done chan struct{}

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	policy    Policy
	accepted  atomic.Uint64
	dropped   atomic.Uint64
	highWater atomic.Int64
}

// NewQueue creates a bounded ingest queue (capacity <= 0 selects 1024).
func NewQueue(capacity int, policy Policy) *Queue {
	return NewQueueOf[stream.SourceTuple](capacity, policy)
}

// NewQueueOf creates a bounded queue of any element type.
func NewQueueOf[T any](capacity int, policy Policy) *QueueOf[T] {
	if capacity <= 0 {
		capacity = 1024
	}
	return &QueueOf[T]{
		ch:     make(chan T, capacity),
		done:   make(chan struct{}),
		policy: policy,
	}
}

// Tuples implements stream.Source; RunLiveOpts consumes the queue directly.
func (q *QueueOf[T]) Tuples() <-chan T { return q.ch }

// Depth is the number of queued tuples not yet consumed by the engine.
func (q *QueueOf[T]) Depth() int { return len(q.ch) }

// Put enqueues one tuple per the policy, as a batch of one. Block waits
// for space (or ctx cancellation, or queue close); DropOldest never waits
// — it evicts the oldest queued tuple instead and counts the drop.
func (q *QueueOf[T]) Put(ctx context.Context, st T) error {
	_, err := q.PutBatch(ctx, []T{st})
	return err
}

// PutBatch enqueues a batch under one admission check, one in-flight
// account and one accounting update — the per-tuple mutex, WaitGroup and
// counter costs that dominate Put at binary-frame ingest rates are paid
// once per frame instead. Semantics match len(sts) sequential Puts; it
// returns how many tuples were enqueued, so on ErrQueueClosed (epoch
// rollover mid-batch) the caller can re-offer the remainder to the next
// epoch's queue.
func (q *QueueOf[T]) PutBatch(ctx context.Context, sts []T) (int, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, ErrQueueClosed
	}
	// In-flight accounting lets Close delay closing the channel until
	// every admitted batch has settled, so a racing sender can never send
	// on a closed channel.
	q.inflight.Add(1)
	q.mu.Unlock()
	defer q.inflight.Done()

	for i := range sts {
		var err error
		if q.policy == DropOldest {
			if !q.sendEvicting(sts[i]) {
				err = ErrQueueClosed
			}
		} else {
			err = q.sendBlocking(ctx, sts[i])
		}
		if err != nil {
			q.accept(i)
			return i, err
		}
	}
	q.accept(len(sts))
	return len(sts), nil
}

// sendBlocking is the Block send. A single-channel non-blocking send
// admits the tuple whenever the channel has room — the common case, and
// far cheaper than a select over three channels; only a full channel
// falls back to waiting on space, close or cancellation. Since the fast
// path sees a full channel first, it records that depth as the high water.
func (q *QueueOf[T]) sendBlocking(ctx context.Context, st T) error {
	select {
	case q.ch <- st:
		return nil
	default:
	}
	q.noteDepth(cap(q.ch))
	select {
	case q.ch <- st:
		return nil
	case <-q.done:
		return ErrQueueClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sendEvicting is the DropOldest send: evict until the tuple fits, never
// block. Reports false once the queue is closed.
func (q *QueueOf[T]) sendEvicting(st T) bool {
	select {
	case q.ch <- st:
		return true
	default:
	}
	q.noteDepth(cap(q.ch))
	for {
		select {
		case q.ch <- st:
			return true
		case <-q.done:
			return false
		default:
		}
		select {
		case <-q.ch:
			q.dropped.Add(1)
		default:
			// The consumer raced us to the eviction; yield and retry.
			runtime.Gosched()
		}
	}
}

// accept counts n enqueued tuples and samples the depth they left.
func (q *QueueOf[T]) accept(n int) {
	q.accepted.Add(uint64(n))
	q.noteDepth(len(q.ch))
}

// noteDepth raises the high-water mark to d. Best-effort: racy reads are
// fine for monitoring, and d never exceeds the capacity.
func (q *QueueOf[T]) noteDepth(d int) {
	if int64(d) > q.highWater.Load() {
		q.highWater.Store(int64(d))
	}
}

// Close ends the stream: subsequent Puts fail with ErrQueueClosed, and once
// in-flight Puts settle the channel closes, so the consuming RunLiveOpts
// processes everything accepted and then drains the plan gracefully.
// Idempotent and safe to call concurrently with Put.
func (q *QueueOf[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.done)
	// Blocked Puts may need the consumer to make room before they settle,
	// so the final close happens off the caller's goroutine.
	go func() {
		q.inflight.Wait()
		close(q.ch)
	}()
}

// QueueStats is a monitoring snapshot.
type QueueStats struct {
	Accepted  uint64 `json:"accepted"`
	Dropped   uint64 `json:"dropped"`
	Depth     int    `json:"depth"`
	Capacity  int    `json:"capacity"`
	HighWater int    `json:"high_water"`
	Policy    string `json:"policy"`
}

// Stats snapshots the queue counters; safe while producers and the engine
// are running.
func (q *QueueOf[T]) Stats() QueueStats {
	return QueueStats{
		Accepted:  q.accepted.Load(),
		Dropped:   q.dropped.Load(),
		Depth:     len(q.ch),
		Capacity:  cap(q.ch),
		HighWater: int(q.highWater.Load()),
		Policy:    q.policy.String(),
	}
}
