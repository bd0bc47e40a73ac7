package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHTTPSurface(t *testing.T) {
	r := NewRegistry()
	r.Counter("fl_reports_total").Add(5)
	r.Counter("fl_net_tx_bytes_total").Add(1 << 20)
	r.Counter("fl_net_rx_bytes_total").Add(2 << 20)
	r.Gauge(Label("fl_selector_pooled", "population", "gboard")).Add(40)
	r.Gauge(Label("fl_selector_pooled", "population", "search")).Add(3)
	r.Gauge(Label("fl_selector_pooled", "population", "search")).Add(-1)
	progress := []PopulationProgress{{
		Name: "gboard", Round: 4, Completed: 3, Failed: 1,
		Sharded: true, Shards: 2, Seals: 6, BytesUpstream: 123,
		Tasks: []TaskProgress{{ID: "gboard/train", Type: "train", State: "live", RoundsCommitted: 3}},
	}}
	srv := httptest.NewServer(r.Handler(
		WithTitle("test fleet"),
		WithProgress(func() []PopulationProgress { return progress }),
	))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "fl_reports_total 5") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}

	code, body = get(t, srv, "/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if doc["fl_reports_total"] != 5.0 {
		t.Fatalf("/debug/vars: %v", doc)
	}

	code, body = get(t, srv, "/dashboard")
	if code != 200 {
		t.Fatalf("/dashboard: %d", code)
	}
	for _, want := range []string{
		"=== test fleet ===",
		"fl_reports_total",
		"traffic: 1.0 MB down / 2.1 MB up",
		"selection pool: 42 device(s) checked in and waiting for the next round",
		"gboard: round 4, 3 completed, 1 failed; 2 shard(s) connected, 6 seals / 123 bytes upstream",
		"task gboard/train [train live]: 3 committed, 0 failed, 0 devices",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/dashboard missing %q\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d\n%s", code, body)
	}
}

func TestServeEmptyAddrNoop(t *testing.T) {
	r := NewRegistry()
	srv, err := r.Serve("")
	if srv != nil || err != nil {
		t.Fatalf("empty addr: %v %v", srv, err)
	}
}

func TestServeAndClose(t *testing.T) {
	r := NewRegistry()
	r.Counter("fl_up").Inc()
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "fl_up 1") {
		t.Fatalf("served metrics: %s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
