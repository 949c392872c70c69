package daemon

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"webevolve/internal/obs"
)

// TestDebugMux covers the three surfaces every daemon's debug listener
// shares: /metrics exposition, the /debug/trace JSONL tail, and a live
// pprof endpoint.
func TestDebugMux(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("webevolve_test_ops_total", "test ops").Add(9)
	tr := obs.NewTrace(16)
	tr.Span("fetch", 3, 12, time.Now())

	srv := httptest.NewServer(DebugMux(reg, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "webevolve_test_ops_total 9") {
		t.Errorf("/metrics: status %d, body %q", code, body)
	}
	if code, body := get("/debug/trace"); code != 200 || !strings.Contains(body, `"name":"fetch"`) || !strings.Contains(body, `"round":3`) {
		t.Errorf("/debug/trace: status %d, body %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}
}

// TestServeDebug starts the real listener on :0 and checks the addr
// file round trip plus cleanup.
func TestServeDebug(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "metrics.addr")
	stop, err := ServeDebug("testd", "127.0.0.1:0", addrFile)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatalf("addr file not published: %v", err)
	}
	resp, err := http.Get("http://" + strings.TrimSpace(string(addr)) + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/metrics status %d", resp.StatusCode)
	}
	stop()
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Errorf("addr file not removed on stop: %v", err)
	}
}

// TestServeDebugDisabled: an empty listen address is a no-op.
func TestServeDebugDisabled(t *testing.T) {
	stop, err := ServeDebug("testd", "", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

// TestStatsLine: the stats line is the daemon's name followed by the
// default registry's non-zero families as sorted name=value pairs.
func TestStatsLine(t *testing.T) {
	c := obs.Default.Counter("daemon_statsline_test_total", "")
	c.Add(2)
	pair := "daemon_statsline_test_total=" + strconv.FormatInt(c.Value(), 10)
	line := StatsLine("shardd")
	pairs, ok := strings.CutPrefix(line, "shardd: stats: ")
	if !ok {
		t.Fatalf("StatsLine = %q: no name prefix", line)
	}
	fields := strings.Fields(pairs)
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i], _, _ = strings.Cut(f, "=")
	}
	if !slices.Contains(fields, pair) || !slices.IsSorted(names) {
		t.Fatalf("StatsLine pairs %q: want pairs sorted by name, holding %s", pairs, pair)
	}
}
