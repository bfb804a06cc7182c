package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stream"
)

// Accounting under concurrent producers, for both policies: with P
// goroutines hammering a small queue — half with Put, half with PutBatch —
// while a consumer drains it, every accepted tuple must be either delivered
// or counted as dropped (Block drops none) — no double counts, no losses —
// and the high-water mark never exceeds the capacity. (The single-threaded
// form lives in server_test.go; this is the contended form the queue meets
// as the cluster router's per-worker send buffer.) Then the batch path's
// early exits: PutBatch into a full Block queue returns the ctx error, or
// ErrQueueClosed when the queue closes mid-batch, with the count of the
// accepted prefix; into a full DropOldest queue it evicts instead.
func TestQueueDropOldestConcurrentAccounting(t *testing.T) {
	const (
		producers = 8
		perProd   = 4000
		capacity  = 64
		batch     = 16
	)
	for _, policy := range []Policy{Block, DropOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			q := NewQueue(capacity, policy)

			var delivered atomic.Uint64
			consumerDone := make(chan struct{})
			go func() {
				defer close(consumerDone)
				for range q.Tuples() {
					delivered.Add(1)
				}
			}()

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if p%2 == 0 {
						for i := 0; i < perProd; i++ {
							if err := q.Put(context.Background(), stream.SourceTuple{}); err != nil {
								t.Errorf("Put: %v", err)
								return
							}
						}
						return
					}
					sts := make([]stream.SourceTuple, batch)
					for i := 0; i < perProd; i += batch {
						if n, err := q.PutBatch(context.Background(), sts); n != batch || err != nil {
							t.Errorf("PutBatch: %d, %v", n, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			q.Close()
			<-consumerDone

			st := q.Stats()
			if st.Accepted != producers*perProd {
				t.Fatalf("accepted %d, want %d", st.Accepted, producers*perProd)
			}
			if st.Depth != 0 {
				t.Fatalf("depth %d after full drain", st.Depth)
			}
			if got := delivered.Load() + st.Dropped; got != st.Accepted {
				t.Fatalf("delivered %d + dropped %d = %d, want accepted %d",
					delivered.Load(), st.Dropped, got, st.Accepted)
			}
			if policy == Block && st.Dropped != 0 {
				t.Fatalf("block queue dropped %d", st.Dropped)
			}
			if st.HighWater > capacity {
				t.Fatalf("high water %d exceeds capacity %d", st.HighWater, capacity)
			}
		})
	}

	// fill starts PutBatch of 3*small tuples into an unconsumed queue of
	// capacity small and waits until the queue is full.
	const small = 4
	type putResult struct {
		n   int
		err error
	}
	fill := func(t *testing.T, ctx context.Context, q *Queue) chan putResult {
		res := make(chan putResult, 1)
		go func() {
			n, err := q.PutBatch(ctx, make([]stream.SourceTuple, 3*small))
			res <- putResult{n, err}
		}()
		for q.Depth() < small {
			runtime.Gosched()
		}
		return res
	}
	check := func(t *testing.T, q *Queue, got putResult, wantErr error) {
		t.Helper()
		if got.n != small || got.err != wantErr {
			t.Fatalf("PutBatch returned (%d, %v), want (%d, %v)", got.n, got.err, small, wantErr)
		}
		if st := q.Stats(); st.Accepted != small || st.HighWater > small || st.Dropped != 0 {
			t.Fatalf("stats %+v, want %d accepted and high water at most %d", st, small, small)
		}
	}
	t.Run("block-cancel-mid-batch", func(t *testing.T) {
		q := NewQueue(small, Block)
		ctx, cancel := context.WithCancel(context.Background())
		res := fill(t, ctx, q)
		cancel()
		check(t, q, <-res, context.Canceled)
	})
	t.Run("block-close-mid-batch", func(t *testing.T) {
		q := NewQueue(small, Block)
		res := fill(t, context.Background(), q)
		q.Close()
		check(t, q, <-res, ErrQueueClosed)
		n := 0
		for range q.Tuples() {
			n++
		}
		if n != small {
			t.Fatalf("drained %d tuples after close, want the %d accepted", n, small)
		}
	})
	t.Run("drop-oldest-full", func(t *testing.T) {
		q := NewQueue(small, DropOldest)
		if n, err := q.PutBatch(context.Background(), make([]stream.SourceTuple, 3*small)); n != 3*small || err != nil {
			t.Fatalf("PutBatch returned (%d, %v), want (%d, nil)", n, err, 3*small)
		}
		if st := q.Stats(); st.Accepted != 3*small || st.Dropped != 2*small || st.Depth != small || st.HighWater != small {
			t.Fatalf("stats %+v", st)
		}
	})
}

// The generic instantiation the router uses: byte-slice elements, block
// policy, accounting intact across close.
func TestQueueOfBytes(t *testing.T) {
	q := NewQueueOf[[]byte](4, Block)
	for i := 0; i < 4; i++ {
		if err := q.Put(context.Background(), []byte{byte(i)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	q.Close()
	var got []byte
	for line := range q.Tuples() {
		got = append(got, line...)
	}
	if string(got) != "\x00\x01\x02\x03" {
		t.Fatalf("drained %q, want FIFO bytes", got)
	}
	if err := q.Put(context.Background(), []byte("late")); err != ErrQueueClosed {
		t.Fatalf("Put after close: %v, want ErrQueueClosed", err)
	}
	if st := q.Stats(); st.Accepted != 4 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}
