package uop

import (
	"fmt"
	"testing"

	"repro/internal/stream"
)

// corruptRestoreCases are the plans whose checkpoints the corruption tests
// mangle: two-shard sliding windows, where restore replays window residents
// through the delta accumulators and so decodes the most nested state.
var corruptRestoreCases = []struct {
	name  string
	build func() *Query
}{
	{"q1-sliding/shards=2", func() *Query { return BuildQ1(ckptQ1Config(2*stream.Second, 2)) }},
	{"q3-sliding/shards=2", func() *Query {
		return BuildQ3(Q3Config{SlideMS: 2 * stream.Second, Shards: 2, ThresholdLbs: 25, AreaFt: 10})
	}},
}

// midTraceCheckpoint pushes the first half of a seeded trace through a
// fresh plan and checkpoints it.
func midTraceCheckpoint(tb testing.TB, build func() *Query) []byte {
	tb.Helper()
	lts, w := seededTrace(tb, 50, 350, 0)
	c := build().Compile()
	for _, lt := range lts[:len(lts)/2] {
		c.Push("locations", LocationUTuple(lt, w))
	}
	c.Results()
	blob, err := c.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// restorePanic restores data into a freshly compiled plan and returns the
// message of any panic the restore raised ("" when it returned). Whether it
// returned an error does not matter here: corrupt bytes may still decode.
func restorePanic(build func() *Query, data []byte) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	_ = build().Compile().RestoreFrom(data)
	return ""
}

// TestRestoreFromCorruptReturnsError: checkpoint bytes come back from disk
// and, on worker promote, over the network, so RestoreFrom must report any
// corruption as an error and never panic. Every byte of a mid-trace
// checkpoint is flipped three ways, and the checkpoint is truncated at
// every length. Under the race detector, which makes each restore about
// six times slower, the sweep takes every fourth byte and length.
func TestRestoreFromCorruptReturnsError(t *testing.T) {
	for _, tc := range corruptRestoreCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			blob := midTraceCheckpoint(t, tc.build)
			if err := tc.build().Compile().RestoreFrom(blob); err != nil {
				t.Fatalf("intact checkpoint: %v", err)
			}
			var restores, panics int
			var first string
			try := func(what string, data []byte) {
				restores++
				if p := restorePanic(tc.build, data); p != "" {
					if panics == 0 {
						first = fmt.Sprintf("%s: %s", what, p)
					}
					panics++
				}
			}
			step := 1
			if raceEnabled {
				step = 4
			}
			mut := make([]byte, len(blob))
			for i := 0; i < len(blob); i += step {
				for _, x := range []byte{0x01, 0x80, 0xff} {
					copy(mut, blob)
					mut[i] ^= x
					try(fmt.Sprintf("byte %d ^ %#x", i, x), mut)
				}
			}
			for n := 0; n < len(blob); n += step {
				try(fmt.Sprintf("truncated to %d", n), blob[:n])
			}
			if panics > 0 {
				t.Fatalf("%d of %d corrupt restores panicked; first: %s", panics, restores, first)
			}
		})
	}
}

// FuzzRestoreFrom: arbitrary bytes handed to RestoreFrom yield an error or
// a restored plan, never a panic. Seeded with the mid-trace checkpoints of
// the corruption sweep.
func FuzzRestoreFrom(f *testing.F) {
	for i, tc := range corruptRestoreCases {
		blob := midTraceCheckpoint(f, tc.build)
		f.Add(uint8(i), blob)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		build := corruptRestoreCases[int(which)%len(corruptRestoreCases)].build
		if p := restorePanic(build, data); p != "" {
			t.Fatalf("RestoreFrom panicked: %s", p)
		}
	})
}
