package uop

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// ckptQ1Config builds the Q1 shape the checkpoint tests sweep: window
// policy × sharding.
func ckptQ1Config(slide stream.Time, shards int) Q1Config {
	return Q1Config{
		WindowMS:     5 * stream.Second,
		SlideMS:      slide,
		ThresholdLbs: 120,
		AreaFt:       10,
		Strategy:     core.CFApprox,
		MinAlertProb: 0.5,
		Shards:       shards,
	}
}

// TestCheckpointRestoreByteIdentical is the acceptance property of durable
// state: push a prefix, Checkpoint, restore the blob into a freshly
// compiled plan, push the suffix — the concatenated alert stream must be
// byte-identical (%.17g) to the uninterrupted run, at several split points,
// across tumbling/sliding windows, shard counts, and both aggregation
// paths.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	configs := []struct {
		name      string
		cfg       Q1Config
		recompute bool
	}{
		{"tumbling", ckptQ1Config(0, 0), false},
		{"tumbling/shards=2", ckptQ1Config(0, 2), false},
		{"sliding-incremental", ckptQ1Config(2*stream.Second, 0), false},
		{"sliding-incremental/shards=3", ckptQ1Config(2*stream.Second, 3), false},
		{"sliding-recompute/shards=2", ckptQ1Config(2*stream.Second, 2), true},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			ref := formatQ1(Q1Alerts(runTrace(buildQ1(tc.cfg, tc.recompute), lts, nil, w, 0)))
			if ref == "" {
				t.Fatal("reference run produced no alerts")
			}
			for _, frac := range []int{1, 2, 3} {
				cut := len(lts) * frac / 4
				c1 := buildQ1(tc.cfg, tc.recompute).Compile()
				for _, lt := range lts[:cut] {
					c1.Push("locations", LocationUTuple(lt, w))
				}
				pre := c1.Results()
				blob, err := c1.Checkpoint()
				if err != nil {
					t.Fatalf("cut %d: checkpoint: %v", cut, err)
				}
				c2 := buildQ1(tc.cfg, tc.recompute).Compile()
				if err := c2.RestoreFrom(blob); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				for _, lt := range lts[cut:] {
					c2.Push("locations", LocationUTuple(lt, w))
				}
				got := formatQ1(Q1Alerts(pre)) + formatQ1(Q1Alerts(c2.Close()))
				if got != ref {
					t.Fatalf("cut %d: recovered alerts diverge:\nref:\n%s\ngot:\n%s", cut, ref, got)
				}
			}
		})
	}
}

// TestCheckpointOfRestoredGraphIsStable: checkpointing a just-restored plan
// must reproduce the original blob byte for byte — snapshot encodings
// contain no map-order or pointer-dependent bytes, so checkpoint/restore
// cycles cannot drift.
func TestCheckpointOfRestoredGraphIsStable(t *testing.T) {
	lts, w := seededTrace(t, 40, 250, 0)
	for _, cfg := range []Q1Config{
		ckptQ1Config(0, 2),
		ckptQ1Config(2*stream.Second, 3),
	} {
		c1 := BuildQ1(cfg).Compile()
		for _, lt := range lts[:len(lts)/2] {
			c1.Push("locations", LocationUTuple(lt, w))
		}
		c1.Results()
		blob, err := c1.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		c2 := BuildQ1(cfg).Compile()
		if err := c2.RestoreFrom(blob); err != nil {
			t.Fatal(err)
		}
		blob2, err := c2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(blob2) {
			t.Fatalf("shards=%d: re-checkpoint after restore produced different bytes (%d vs %d)",
				cfg.Shards, len(blob), len(blob2))
		}
	}
}

// TestCheckpointLiveBarrierByteIdentical exercises the live-executor path
// recovery rides on: a running sharded plan is checkpointed through a
// quiesce barrier mid-stream, then abandoned (the crash), and a fresh plan
// restored from the blob consumes the remaining tuples. Alerts emitted
// before the barrier plus the restored plan's alerts must equal the
// uninterrupted run byte for byte.
func TestCheckpointLiveBarrierByteIdentical(t *testing.T) {
	lts, w := seededTrace(t, 40, 300, 0)
	cfg := ckptQ1Config(2*stream.Second, 2)
	ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
	if ref == "" {
		t.Fatal("reference run produced no alerts")
	}

	c1 := BuildQ1(cfg).Compile()
	var mu sync.Mutex
	var live []*stream.Tuple
	c1.OnResult(func(tp *stream.Tuple) {
		mu.Lock()
		live = append(live, tp)
		mu.Unlock()
	})
	box, port, ok := c1.LookupSource("locations")
	if !ok {
		t.Fatal("no locations source")
	}
	src := make(stream.ChanSource)
	barriers := make(chan func())
	runErr := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		runErr <- c1.RunLiveOpts(ctx, src, stream.LiveOptions{Barriers: barriers})
	}()

	cut := len(lts) / 2
	for _, lt := range lts[:cut] {
		src <- stream.SourceTuple{Box: box, Port: port, T: core.Wrap(LocationUTuple(lt, w))}
	}
	var blob []byte
	var ckErr error
	var n1 int
	done := make(chan struct{})
	barriers <- func() {
		blob, ckErr = c1.Checkpoint()
		mu.Lock()
		n1 = len(live)
		mu.Unlock()
		close(done)
	}
	<-done
	// The crash: abandon the first run. Whatever it emits while draining is
	// post-checkpoint state the recovered plan will re-derive.
	cancel()
	close(src)
	<-runErr
	if ckErr != nil {
		t.Fatalf("checkpoint at barrier: %v", ckErr)
	}

	c2 := BuildQ1(cfg).Compile()
	if err := c2.RestoreFrom(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, lt := range lts[cut:] {
		c2.Push("locations", LocationUTuple(lt, w))
	}
	mu.Lock()
	pre := append([]*stream.Tuple(nil), live[:n1]...)
	mu.Unlock()
	got := formatQ1(Q1Alerts(pre)) + formatQ1(Q1Alerts(c2.Close()))
	if got != ref {
		t.Fatalf("recovered live alerts diverge:\nref:\n%s\ngot:\n%s", ref, got)
	}
}

// TestRestoreRejectsDrift: a checkpoint must refuse to restore into a plan
// with a different topology (shard count) and must reject truncated blobs —
// both would otherwise replay tuples into the wrong state silently.
func TestRestoreRejectsDrift(t *testing.T) {
	lts, w := seededTrace(t, 20, 150, 0)
	cfg := ckptQ1Config(0, 2)
	c1 := BuildQ1(cfg).Compile()
	for _, lt := range lts[:len(lts)/2] {
		c1.Push("locations", LocationUTuple(lt, w))
	}
	blob, err := c1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildQ1(ckptQ1Config(0, 3)).Compile().RestoreFrom(blob); err == nil {
		t.Error("restore into a different shard topology did not fail")
	}
	if err := BuildQ1(cfg).Compile().RestoreFrom(blob[:len(blob)-5]); err == nil {
		t.Error("restore of a truncated checkpoint did not fail")
	}
	// An untouched plan's checkpoint restores cleanly (empty state).
	empty, err := BuildQ1(cfg).Compile().Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildQ1(cfg).Compile().RestoreFrom(empty); err != nil {
		t.Fatalf("empty checkpoint did not restore: %v", err)
	}
}
