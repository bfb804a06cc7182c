package router

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/server"
)

// TestRouterStateDamagedFileIsDetected: the router's durable blob rides the
// same checksummed store envelope as engine checkpoints, so a blob file cut
// short or bit-flipped on disk fails recovery as a corrupt file instead of
// decoding into a wrong router state.
func TestRouterStateDamagedFileIsDetected(t *testing.T) {
	store, err := server.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := (&routerState{
		ckpt: 7, nslots: 2, weights: []int{1, 1},
		routeSlot: []int{0, 1}, replicaSlot: []int{1, 0},
		snaps: make([]roundSnap, 2), closes: []uint64{3, 3},
		head: []byte("head checkpoint"),
	}).encode()
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
