package metrics

import (
	"encoding/json"
	"fmt"
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

// dashboard renders r's /dashboard body under title.
func dashboard(r *Registry, title string) string {
	var b strings.Builder
	r.writeDashboard(&b, &httpState{title: title})
	return b.String()
}

// counterLine is the /dashboard line of one counter series.
func counterLine(name string, v int64) string {
	return fmt.Sprintf("  %-32s %12d\n", name, v)
}

func TestDashboardCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("fl_devices_accepted_total").Add(5)
	r.Counter("fl_devices_accepted_total").Add(3)
	r.Counter("fl_devices_rejected_total").Add(1)
	out := dashboard(r, "counters")
	for _, want := range []string{
		counterLine("fl_devices_accepted_total", 8),
		counterLine("fl_devices_rejected_total", 1),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/dashboard missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fl_missing_total") || strings.Count(out, "\n  ") != 2 {
		t.Errorf("/dashboard should list exactly the two registered counters:\n%s", out)
	}
	snap := r.Export()
	r.Counter("fl_devices_accepted_total").Add(100)
	if snap.Counters["fl_devices_accepted_total"] != 8 {
		t.Fatal("Export must be a copy")
	}
	if !strings.Contains(dashboard(r, "counters"), counterLine("fl_devices_accepted_total", 108)) {
		t.Fatal("/dashboard must read the live counter")
	}
}

func TestDashboardTraffic(t *testing.T) {
	r := NewRegistry()
	r.Counter(NetTxBytes).Add(1_000_000)
	r.Counter(NetTxBytes).Add(500_000)
	r.Counter(NetRxBytes).Add(300_000)
	if out := dashboard(r, "traffic"); !strings.Contains(out, "traffic: 1.5 MB down / 0.3 MB up\n") {
		t.Fatalf("local traffic:\n%s", out)
	}
	r.SetExternal(`shard="1"`, Export{Counters: map[string]int64{NetTxBytes: 2_000_000, NetRxBytes: 700_000}})
	if out := dashboard(r, "traffic"); !strings.Contains(out, "traffic: 3.5 MB down / 1.0 MB up\n") {
		t.Fatalf("traffic with a shipped shard:\n%s", out)
	}
	r.DropExternal(`shard="1"`)
	if out := dashboard(r, "traffic"); !strings.Contains(out, "traffic: 1.5 MB down / 0.3 MB up\n") {
		t.Fatalf("traffic after the shard left:\n%s", out)
	}
}

func TestDashboardRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("fl_devices_accepted_total").Add(130)
	r.Counter("fl_devices_rejected_total").Add(900)
	success := Label(SessionShapes, "shape", "-v[]+^")
	interrupted := Label(SessionShapes, "shape", "-v[!")
	for i := 0; i < 75; i++ {
		r.Counter(success).Inc()
	}
	for i := 0; i < 25; i++ {
		r.Counter(interrupted).Inc()
	}
	r.Counter(NetTxBytes).Add(5_000_000)
	r.Counter(NetRxBytes).Add(1_000_000)

	out := dashboard(r, "gboard/next-word")
	for _, want := range []string{
		"=== gboard/next-word ===\n",
		counterLine("fl_devices_accepted_total", 130),
		counterLine("fl_devices_rejected_total", 900),
		counterLine(success, 75),
		counterLine(interrupted, 25),
		"traffic: 5.0 MB down / 1.0 MB up\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/dashboard missing %q:\n%s", want, out)
		}
	}
	shapes := r.CounterFamily(SessionShapes, "shape")
	if len(shapes) != 2 || shapes["-v[]+^"] != 75 || shapes["-v[!"] != 25 {
		t.Fatalf("shape family: %v", shapes)
	}
}

func TestDashboardEmptySections(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	r.writeDashboard(&b, &httpState{title: "empty", progress: func() []PopulationProgress { return nil }})
	want := "=== empty ===\ncounters:\n" +
		"traffic: 0.0 MB down / 0.0 MB up\n" +
		"selection pool: 0 device(s) checked in and waiting for the next round\n"
	if b.String() != want {
		t.Fatalf("empty /dashboard:\n%q\nwant\n%q", b.String(), want)
	}
}

// TestRenderersAgree pins that /metrics, /debug/vars and /dashboard are three
// views of one set of rows: every series /debug/vars lists carries the same
// value on /metrics, every counter is a /dashboard line with that value, and
// the dashboard's traffic and selection-pool lines are the sums of their
// series — local and shipped alike.
func TestRenderersAgree(t *testing.T) {
	r := NewRegistry()
	r.Counter(NetTxBytes).Add(3_000_000)
	r.Counter(NetRxBytes).Add(1_500_000)
	r.Counter("fl_reports_total").Add(7)
	r.Gauge(Label("fl_selector_pooled", "population", "p")).Set(5)
	r.Gauge(Label("fl_fold_kernel", "impl", "avx2")).Set(1)
	r.Summary("fl_seal_seconds").Observe(0.25)
	r.SetExternal(`shard="1"`, Export{
		Counters: map[string]int64{NetTxBytes: 2_000_000, "fl_reports_total": 4},
		Gauges: map[string]float64{Label("fl_selector_pooled", "population", "p"): 2,
			Label("fl_fold_kernel", "impl", "generic"): 1},
		Summaries: map[string][]float64{"fl_seal_seconds": {2, 0.5, 0.1, 0.4, 0.6, 0.5, 0.6, 0.6}},
	})
	var prom, vars, dash strings.Builder
	r.WritePrometheus(&prom)
	r.WriteJSON(&vars)
	r.writeDashboard(&dash, &httpState{title: "agree"})

	var doc map[string]any
	if err := json.Unmarshal([]byte(vars.String()), &doc); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if len(doc) != 11 {
		t.Fatalf("/debug/vars has %d series, want 6 local + 5 shipped: %v", len(doc), doc)
	}
	has := func(surface, out, line string) {
		t.Helper()
		if !strings.Contains(out, line) {
			t.Errorf("%s lacks %q:\n%s", surface, line, out)
		}
	}
	var tx, rx, pooled float64
	counters := 0
	for name, v := range doc {
		family, labels := baseName(name), labelSet(name)
		switch v := v.(type) {
		case float64:
			has("/metrics", prom.String(), fmt.Sprintf("\n%s %v\n", name, v))
			if strings.Contains(prom.String(), "# TYPE "+family+" counter") {
				counters++
				has("/dashboard", dash.String(), fmt.Sprintf("  %-32s %12d\n", name, int64(v)))
			}
			switch family {
			case NetTxBytes:
				tx += v
			case NetRxBytes:
				rx += v
			case "fl_selector_pooled":
				pooled += v
			}
		case map[string]any:
			for q, field := range map[string]string{"0.5": "p50", "0.9": "p90", "0.99": "p99"} {
				has("/metrics", prom.String(), fmt.Sprintf("%s{%s} %v\n",
					family, strings.TrimPrefix(labels+`,quantile="`+q+`"`, ","), v[field]))
			}
			has("/metrics", prom.String(), fmt.Sprintf("%s %v\n", injectLabel(family+"_count", labels), v["count"]))
		}
	}
	if counters != 5 || strings.Count(dash.String(), "\n  ") != counters {
		t.Errorf("%d counters on /debug/vars, %d counter lines on /dashboard, want 5:\n%s",
			counters, strings.Count(dash.String(), "\n  "), dash.String())
	}
	has("/dashboard", dash.String(), fmt.Sprintf("traffic: %0.1f MB down / %0.1f MB up\n", tx/1e6, rx/1e6))
	has("/dashboard", dash.String(), fmt.Sprintf("selection pool: %.0f device(s)", pooled))
	has("/dashboard", dash.String(), `fold kernel: impl="avx2"; impl="generic",shard="1"`+"\n")
	if tx != 5e6 || rx != 1.5e6 || pooled != 7 {
		t.Errorf("sums tx=%v rx=%v pooled=%v, want 5e6, 1.5e6, 7", tx, rx, pooled)
	}
}
