package router

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRouterPprof: the router's -http listener serves the runtime profiles
// next to /statsz.
func TestRouterPprof(t *testing.T) {
	cl := startCluster(t, 1, clusterQ1Cfg(), func(c *Config) { c.HTTPAddr = "127.0.0.1:0" })
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/heap?debug=1", cl.rt.HTTPAddr()))
	if err != nil {
		t.Fatalf("GET heap profile: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile") {
		t.Fatalf("heap profile: status %d, err %v, body %.80q", resp.StatusCode, err, body)
	}
}
