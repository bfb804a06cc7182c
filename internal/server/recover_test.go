package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/uop"
)

// TestFileStore pins the Store contract the engine's durability rides on:
// atomic replace, ascending List that ignores temp and foreign files, and
// idempotent Delete.
func TestFileStore(t *testing.T) {
	st, err := NewFileStore(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(0); err == nil {
		t.Fatal("Get of a missing epoch did not fail")
	}
	if err := st.Put(0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(0, []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if data, err := st.Get(0); err != nil || string(data) != "replaced" {
		t.Fatalf("Get(0) = %q, %v", data, err)
	}
	// Stray files a crashed Put or an operator could leave behind must not
	// surface as epochs.
	for _, junk := range []string{".epoch-1-zzz.tmp", "epoch-x.ckpt", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(st.Dir(), junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	epochs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 0 || epochs[1] != 2 {
		t.Fatalf("List = %v, want [0 2]", epochs)
	}
	if err := st.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(2); err != nil {
		t.Fatalf("second Delete of the same epoch: %v", err)
	}
	epochs, _ = st.List()
	if len(epochs) != 1 || epochs[0] != 0 {
		t.Fatalf("List after delete = %v, want [0]", epochs)
	}
}

// offlinePrefixLines runs a prefix of the wire stream through the unsharded
// synchronous plan WITHOUT closing it — the alerts an uninterrupted run has
// emitted by the time that prefix is fully processed. This is exactly what a
// quiesced live plan must have broadcast when a checkpoint taken after the
// same prefix completes.
func offlinePrefixLines(t testing.TB, msgs []Msg, cfg uop.Q1Config) []string {
	t.Helper()
	cfg.Shards = 0
	c := uop.BuildQ1(cfg).Compile()
	var lines []string
	for _, m := range msgs {
		u, err := ParseTuple(m)
		if err != nil {
			t.Fatalf("parse wire tuple: %v", err)
		}
		c.Push("locations", u)
		for _, tp := range c.Results() {
			am, err := AlertMsg(tp)
			if err != nil {
				t.Fatalf("encode alert: %v", err)
			}
			line, err := EncodeLine(am)
			if err != nil {
				t.Fatalf("encode line: %v", err)
			}
			lines = append(lines, string(line))
		}
	}
	return lines
}

// recvAlertsUntilDone drains a subscriber to the "done" line, returning the
// alert lines seen.
func recvAlertsUntilDone(t *testing.T, sub *testClient) []string {
	t.Helper()
	var got []string
	for {
		line := sub.recvLine(30 * time.Second)
		var m Msg
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad alert line %q: %v", line, err)
		}
		if m.Kind == KindDone {
			return got
		}
		got = append(got, line)
	}
}

// TestServerCrashRecoveryByteIdentical is the durable-state acceptance test:
// ingest a prefix, force a checkpoint, ingest more tuples whose effects die
// with the process, Crash() — then restart against the same directory,
// replay everything after the checkpoint, and require the combined alert
// stream (lines delivered before the checkpoint + lines from the recovered
// server) to match the uninterrupted offline run byte for byte, across
// window shapes and shard counts.
func TestServerCrashRecoveryByteIdentical(t *testing.T) {
	msgs := wireTrace(t, 30, 250)
	cases := []struct {
		name   string
		slide  stream.Time
		shards int
	}{
		{"tumbling/unsharded", 0, 0},
		{"tumbling/shards=2", 0, 2},
		{"sliding/shards=3", 2 * stream.Second, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testQ1Config(tc.shards)
			cfg.SlideMS = tc.slide
			ref := offlineAlertLines(t, msgs, cfg)
			cut := len(msgs) * 2 / 3
			crashAt := cut + len(msgs)/6
			preRef := offlinePrefixLines(t, msgs[:cut], cfg)
			if len(preRef) == 0 || len(preRef) >= len(ref) {
				t.Fatalf("bad split: %d alerts before the cut, %d total", len(preRef), len(ref))
			}

			dir := t.TempDir()
			store1, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s1 := newTestServer(t, Config{
				NewPlan:    Q1Plan(cfg),
				FlushEvery: 20 * time.Millisecond,
				Store:      store1,
			})
			sub1 := dialServer(t, s1)
			sub1.send(Msg{Kind: KindSub})
			if m := sub1.recv(5 * time.Second); m.Kind != KindOK {
				t.Fatalf("subscribe: %+v", m)
			}
			ing1 := dialServer(t, s1)
			for _, m := range msgs[:cut] {
				ing1.send(m)
			}
			// "ckpt" waits for the queue to drain and the graph to quiesce, so
			// the persisted state provably covers exactly msgs[:cut].
			ing1.send(Msg{Kind: KindCkpt})
			if m := ing1.recv(30 * time.Second); m.Kind != KindOK {
				t.Fatalf("ckpt: %+v", m)
			}
			st := s1.Stats()
			if st.Checkpoint == nil || st.Checkpoint.Count != 1 || st.Checkpoint.LastBytes == 0 {
				t.Fatalf("checkpoint statsz after ckpt: %+v", st.Checkpoint)
			}
			if len(st.Checkpoint.EpochsOnDisk) != 1 {
				t.Fatalf("epochs on disk: %v", st.Checkpoint.EpochsOnDisk)
			}
			// Tuples the crash will destroy: processed by s1, never persisted.
			for _, m := range msgs[cut:crashAt] {
				ing1.send(m)
			}
			// The subscriber's channel is FIFO, so the first len(preRef) lines
			// are exactly the alerts from before the checkpoint.
			var pre []string
			for len(pre) < len(preRef) {
				pre = append(pre, sub1.recvLine(10*time.Second))
			}
			if strings.Join(pre, "") != strings.Join(preRef, "") {
				t.Fatalf("pre-checkpoint alerts diverge:\nref:\n%s\ngot:\n%s",
					strings.Join(preRef, ""), strings.Join(pre, ""))
			}
			s1.Crash()

			store2, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s2 := newTestServer(t, Config{
				NewPlan:    Q1Plan(cfg),
				FlushEvery: 20 * time.Millisecond,
				Store:      store2,
			})
			sub2 := dialServer(t, s2)
			sub2.send(Msg{Kind: KindSub})
			if m := sub2.recv(5 * time.Second); m.Kind != KindOK {
				t.Fatalf("subscribe after restart: %+v", m)
			}
			ing2 := dialServer(t, s2)
			for _, m := range msgs[cut:] {
				ing2.send(m)
			}
			ing2.send(Msg{Kind: KindEnd})
			if m := ing2.recv(30 * time.Second); m.Kind != KindOK {
				t.Fatalf("end: %+v", m)
			}
			post := recvAlertsUntilDone(t, sub2)

			got := strings.Join(pre, "") + strings.Join(post, "")
			want := strings.Join(ref, "")
			if got != want {
				t.Fatalf("recovered alert stream diverges from uninterrupted run:\nref (%d):\n%s\ngot (%d+%d):\n%s",
					len(ref), want, len(pre), len(post), got)
			}

			st2 := s2.Stats()
			if len(st2.Epochs) == 0 || !st2.Epochs[0].Recovered {
				t.Fatalf("restarted server did not report a recovered epoch: %+v", st2.Epochs)
			}
			// A cleanly completed stream deletes its checkpoint — recovery must
			// never resurrect a finished epoch. The delete runs just after the
			// "done" broadcast, so poll briefly.
			deadline := time.Now().Add(5 * time.Second)
			for {
				epochs, err := store2.List()
				if err != nil {
					t.Fatal(err)
				}
				if len(epochs) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("checkpoint not deleted after clean end: %v", epochs)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// startedStats waits (bounded) until the engine loop has published its
// first epoch and returns the stats snapshot from then. A subscribe ack
// does not wait for that: the recovered epoch number appears only once
// the loop has finished recovery.
func startedStats(t *testing.T, s *Server) Statsz {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if len(st.Epochs) > 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatal("engine published no epoch within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerRecoverCorruptCheckpointStartsFresh: an unreadable checkpoint
// must not take the server down or be silently half-applied — startup falls
// back to a fresh epoch numbered past the bad one, leaves the file on disk
// for diagnosis, and counts the error.
func TestServerRecoverCorruptCheckpointStartsFresh(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(3, []byte("not a checkpoint")); err != nil {
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
		t.Fatalf("epoch after corrupt recovery = %d, want 4 (past the bad checkpoint)", st.Epoch)
	}
	if st.Checkpoint == nil || st.Checkpoint.Errors == 0 {
		t.Fatalf("corrupt checkpoint not counted: %+v", st.Checkpoint)
	}
	// The server still serves: a replayed stream completes normally.
	ing := dialServer(t, s)
	ing.send(locMsgAt(1000, 1, 3, 4, 150))
	ing.send(Msg{Kind: KindEnd})
	if m := ing.recv(10 * time.Second); m.Kind != KindOK {
		t.Fatalf("end: %+v", m)
	}
	recvAlertsUntilDone(t, sub)
	// The bad file stays for diagnosis.
	if _, err := store.Get(3); err != nil {
		t.Fatalf("corrupt checkpoint was removed: %v", err)
	}
}

// TestServerGracefulCloseWritesFinalCheckpoint: Close drains the epoch and
// persists a final checkpoint before open windows flush, so a restart after
// a graceful stop resumes rather than forgetting the open windows. Crash,
// by contrast, must write nothing.
func TestServerGracefulCloseWritesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(0)),
		FlushEvery: 20 * time.Millisecond,
		Store:      store,
	})
	ing := dialServer(t, s)
	ing.send(locMsgAt(1000, 1, 3, 4, 150))
	ing.send(Msg{Kind: KindCkpt}) // force the tuple through before closing
	if m := ing.recv(10 * time.Second); m.Kind != KindOK {
		t.Fatalf("ckpt: %+v", m)
	}
	s.Close()
	epochs, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != 0 {
		t.Fatalf("epochs on disk after graceful close = %v, want [0]", epochs)
	}
	if s.Stats().Checkpoint.Count < 2 {
		t.Fatalf("graceful close did not write a final checkpoint: %+v", s.Stats().Checkpoint)
	}

	// Crash leaves only what was already on disk.
	dir2 := t.TempDir()
	store2, err := NewFileStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{
		NewPlan:    Q1Plan(testQ1Config(0)),
		FlushEvery: 20 * time.Millisecond,
		Store:      store2,
	})
	ing2 := dialServer(t, s2)
	ing2.send(locMsgAt(1000, 1, 3, 4, 150))
	s2.Crash()
	epochs2, err := store2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs2) != 0 {
		t.Fatalf("crash wrote a checkpoint: %v", epochs2)
	}
}
