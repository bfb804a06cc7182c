package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// fetchPprof GETs a path under /debug/pprof/ from an HTTP listener and
// returns the body, failing the test on anything but 200.
func fetchPprof(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/%s", addr, path))
	if err != nil {
		t.Fatalf("GET /debug/pprof/%s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/%s: status %d, err %v", path, resp.StatusCode, err)
	}
	return body
}

// TestServerPprof: the -http listener serves the runtime profiles next to
// /statsz — the index, and a CPU profile of the running daemon (gzip'd
// protobuf).
func TestServerPprof(t *testing.T) {
	s := newTestServer(t, Config{
		HTTPAddr:   "127.0.0.1:0",
		NewPlan:    Q1Plan(testQ1Config(2)),
		FlushEvery: 20 * time.Millisecond,
	})
	addr := s.HTTPAddr().String()
	if index := string(fetchPprof(t, addr, "")); !strings.Contains(index, "goroutine") {
		t.Errorf("pprof index lists no goroutine profile:\n%s", index)
	}
	if cpu := fetchPprof(t, addr, "profile?seconds=1"); len(cpu) < 2 || cpu[0] != 0x1f || cpu[1] != 0x8b {
		t.Errorf("CPU profile is not gzip data (%d bytes)", len(cpu))
	}
}
