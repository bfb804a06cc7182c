package server

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/uop"
)

// sealedCheckpoint stores a real engine checkpoint — a two-shard Q1 plan
// part-way through a stream — as epoch n, and returns the file's raw bytes.
func sealedCheckpoint(t *testing.T, st *FileStore, n int) []byte {
	t.Helper()
	c := uop.BuildQ1(testQ1Config(2)).Compile()
	for i := 0; i < 12; i++ {
		u, err := ParseTuple(locMsgAt(int64(i)*700, int64(i%4), float64(3+i%5), 4, 150))
		if err != nil {
			t.Fatal(err)
		}
		c.Push("locations", u)
	}
	blob, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(n, blob); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(n); err != nil || string(got) != string(blob) {
		t.Fatalf("sealed round trip: %d bytes back, err %v", len(got), err)
	}
	raw, err := os.ReadFile(st.path(n))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFileStoreEnvelopeDetectsDamage: every truncation of a checkpoint
// file, an appended byte, and every single-bit flip anywhere in it — header
// or payload — make Get fail with ErrCorruptFile rather than return bytes.
func TestFileStoreEnvelopeDetectsDamage(t *testing.T) {
	st, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := sealedCheckpoint(t, st, 1)
	check := func(label string, file []byte) {
		t.Helper()
		if err := os.WriteFile(st.path(1), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if data, err := st.Get(1); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("%s: Get = %d bytes, err %v; want ErrCorruptFile", label, len(data), err)
		}
	}
	for n := 0; n < len(raw); n++ {
		check("truncated", raw[:n])
	}
	check("extended", append(append([]byte(nil), raw...), 0))
	flipped := append([]byte(nil), raw...)
	for i := range flipped {
		for bit := 0; bit < 8; bit++ {
			flipped[i] ^= 1 << bit
			check("bit flip", flipped)
			flipped[i] ^= 1 << bit
		}
	}
}

// TestServerRecoverDamagedCheckpointStartsFresh: a real checkpoint cut
// short or bit-flipped on disk is a counted, detected error at startup —
// the server falls back to a fresh epoch past it, as for any corrupt file.
func TestServerRecoverDamagedCheckpointStartsFresh(t *testing.T) {
	for _, damage := range []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)-1] }},
		{"bit-flip", func(raw []byte) []byte { raw[len(raw)/2] ^= 0x10; return raw }},
	} {
		t.Run(damage.name, func(t *testing.T) {
			store, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			raw := sealedCheckpoint(t, store, 3)
			if err := os.WriteFile(store.path(3), damage.fn(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, Config{
				NewPlan:    Q1Plan(testQ1Config(2)),
				FlushEvery: 20 * time.Millisecond,
				Store:      store,
			})
			sub := dialServer(t, s)
			sub.send(Msg{Kind: KindSub})
			if m := sub.recv(5 * time.Second); m.Kind != KindOK {
				t.Fatalf("subscribe: %+v", m)
			}
			st := startedStats(t, s)
			if st.Epoch != 4 {
				t.Fatalf("epoch after damaged recovery = %d, want 4 (past the bad checkpoint)", st.Epoch)
			}
			if st.Checkpoint == nil || st.Checkpoint.Errors == 0 ||
				!strings.Contains(st.Checkpoint.LastError, ErrCorruptFile.Error()) {
				t.Fatalf("damaged checkpoint not counted as corrupt: %+v", st.Checkpoint)
			}
		})
	}
}
