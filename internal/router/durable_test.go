package router

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/uop"
)

// validRouterState is a small consistent blob: two slots, each homed on its
// own worker, replicated on the other, with a snapshot from the round.
func validRouterState() *routerState {
	return &routerState{
		ckpt: 7, nslots: 2, weights: []int{1, 1},
		roster: []rosterEntry{
			{addr: "127.0.0.1:1", home: 0, member: "h0", alive: true},
			{addr: "127.0.0.1:2", home: 1, member: "h1", alive: true},
		},
		routeSlot: []int{0, 1}, replicaSlot: []int{1, 0},
		snaps:  []roundSnap{{closes: 3, data: []byte("slot 0")}, {closes: 3, data: []byte("slot 1")}},
		closes: []uint64{3, 3},
		head:   []byte("head checkpoint"),
	}
}

// TestRouterStateDamagedFileIsDetected: the router's durable blob rides the
// same checksummed store envelope as engine checkpoints, so a blob file cut
// short or bit-flipped on disk fails recovery as a corrupt file instead of
// decoding into a wrong router state.
func TestRouterStateDamagedFileIsDetected(t *testing.T) {
	store, err := server.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := validRouterState().encode()
	if err := store.Put(4, blob); err != nil {
		t.Fatal(err)
	}
	if st, err := loadNewestState(store); err != nil || st.ckpt != 7 {
		t.Fatalf("intact blob: %+v, %v", st, err)
	}
	path := filepath.Join(store.Dir(), "epoch-4.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{
		"truncated": raw[:len(raw)-3],
		"bit-flip":  append(append([]byte(nil), raw[:len(raw)-1]...), raw[len(raw)-1]^0x04),
	} {
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadNewestState(store); !errors.Is(err, server.ErrCorruptFile) {
			t.Errorf("%s blob: recovery error %v, want ErrCorruptFile", name, err)
		}
	}
}

// TestRouterStateRejectsOutOfRangeIndices: a blob whose slot tables name a
// link past the roster, or whose roster names a home past the slot count,
// is refused at decode, so router.New returns an error instead of indexing
// its link table out of range during recovery. Every roster entry is dead
// at the cut, so New dials nothing before the indices would be used.
func TestRouterStateRejectsOutOfRangeIndices(t *testing.T) {
	if _, err := decodeRouterState(validRouterState().encode()); err != nil {
		t.Fatalf("valid blob refused: %v", err)
	}
	plan, err := uop.BuildQ1(clusterQ1Cfg()).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(st *routerState)
		want string
	}{
		{"route slot past roster", func(st *routerState) { st.routeSlot[1] = 2 }, "route slot 1 names link 2 of 2"},
		{"route slot below none", func(st *routerState) { st.routeSlot[0] = -2 }, "route slot 0 names link -2 of 2"},
		{"replica slot past roster", func(st *routerState) { st.replicaSlot[0] = 5 }, "replica slot 0 names link 5 of 2"},
		{"home past slots", func(st *routerState) { st.roster[1].home = 2 }, "roster entry 1 has home slot 2 of 2"},
		{"home below none", func(st *routerState) { st.roster[0].home = -3 }, "roster entry 0 has home slot -3 of 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := validRouterState()
			for i := range st.roster {
				st.roster[i].alive = false
			}
			tc.mut(st)
			store, err := server.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(1, st.encode()); err != nil {
				t.Fatal(err)
			}
			rt, err := New(Config{Addr: "127.0.0.1:0", Workers: []string{"127.0.0.1:1"}, Plan: plan, Store: store})
			if err == nil {
				rt.Close()
				t.Fatal("router recovered from a blob with an out-of-range index")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// FuzzDecodeRouterState: arbitrary bytes decode to an error or to a state
// whose encoding decodes back to the same encoding — never a panic, and
// never a state the recovery path could index out of range.
func FuzzDecodeRouterState(f *testing.F) {
	f.Add(validRouterState().encode())
	st := validRouterState()
	st.routeSlot[1], st.replicaSlot[0] = -1, -1
	st.snaps[1] = roundSnap{}
	st.closeLog = []closePt{{t: 5000, seq: 2}, {t: 10000, seq: 4}}
	st.part = []byte("partition")
	f.Add(st.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeRouterState(data)
		if err != nil {
			return
		}
		for _, tab := range [][]int{st.routeSlot, st.replicaSlot} {
			for _, li := range tab {
				if li < -1 || li >= len(st.roster) {
					t.Fatalf("decoded a slot table naming link %d of %d", li, len(st.roster))
				}
			}
		}
		enc := st.encode()
		again, err := decodeRouterState(enc)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !bytes.Equal(again.encode(), enc) {
			t.Fatal("decode → encode is not a fixpoint")
		}
	})
}
