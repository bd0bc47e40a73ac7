package metrics

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fl_x_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("fl_x_total") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("fl_rate")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	s := r.Summary("fl_lat_seconds")
	s.Observe(1)
	s.Observe(3)
	if snap := s.Snapshot(); snap.Count != 2 || snap.Mean != 2 {
		t.Fatalf("summary snapshot: %+v", snap)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("fl_seals_total"); got != "fl_seals_total" {
		t.Fatalf("no-label: %q", got)
	}
	if got := Label("fl_seals_total", "shard", "1"); got != `fl_seals_total{shard="1"}` {
		t.Fatalf("one label: %q", got)
	}
	if got := Label("a", "x", "1", "y", "z"); got != `a{x="1",y="z"}` {
		t.Fatalf("two labels: %q", got)
	}
}

func TestInjectLabel(t *testing.T) {
	if got := injectLabel("a", `shard="1"`); got != `a{shard="1"}` {
		t.Fatalf("plain: %q", got)
	}
	if got := injectLabel(`a{op="x"}`, `shard="1"`); got != `a{op="x",shard="1"}` {
		t.Fatalf("pre-labeled: %q", got)
	}
	if got := injectLabel("a", ""); got != "a" {
		t.Fatalf("empty label: %q", got)
	}
}

func TestExportExcludesExternals(t *testing.T) {
	r := NewRegistry()
	r.Counter("fl_local_total").Add(7)
	r.SetExternal(`shard="1"`, Export{Counters: map[string]int64{"fl_remote_total": 9}})
	e := r.Export()
	if e.Counters["fl_local_total"] != 7 {
		t.Fatalf("local counter missing: %+v", e.Counters)
	}
	for name := range e.Counters {
		if strings.Contains(name, "remote") || strings.Contains(name, "shard") {
			t.Fatalf("external leaked into export: %q", name)
		}
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("fl_reports_total").Add(3)
	r.Gauge("fl_checkin_rate").Set(12.5)
	sum := r.Summary("fl_seal_seconds")
	for i := 1; i <= 100; i++ {
		sum.Observe(float64(i) / 100)
	}
	r.SetExternal(`shard="2"`, Export{
		Counters:  map[string]int64{"fl_reports_total": 11},
		Summaries: map[string][]float64{"fl_seal_seconds": {4, 0.5, 0.1, 0.2, 0.9, 0.5, 0.8, 0.9}},
	})

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE fl_reports_total counter",
		"fl_reports_total 3",
		`fl_reports_total{shard="2"} 11`,
		"# TYPE fl_checkin_rate gauge",
		"fl_checkin_rate 12.5",
		"# TYPE fl_seal_seconds summary",
		`fl_seal_seconds{quantile="0.5"}`,
		`fl_seal_seconds{quantile="0.99"}`,
		`fl_seal_seconds{shard="2",quantile="0.9"} 0.8`,
		"fl_seal_seconds_count 100",
		`fl_seal_seconds_count{shard="2"} 4`,
		`fl_seal_seconds_sum{shard="2"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// A # TYPE line must appear once per family even with external series.
	if n := strings.Count(out, "# TYPE fl_reports_total counter"); n != 1 {
		t.Errorf("TYPE line repeated %d times", n)
	}
}

func TestJSONRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("fl_a_total").Add(2)
	r.Gauge("fl_nan").Set(math.NaN())
	r.Summary("fl_lat").Observe(1.5)

	var b strings.Builder
	r.WriteJSON(&b)
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, b.String())
	}
	if doc["fl_a_total"] != 2.0 {
		t.Fatalf("counter: %v", doc["fl_a_total"])
	}
	if doc["fl_nan"] != nil {
		t.Fatalf("NaN gauge should render null, got %v", doc["fl_nan"])
	}
	lat, ok := doc["fl_lat"].(map[string]any)
	if !ok || lat["count"] != 1.0 || lat["mean"] != 1.5 {
		t.Fatalf("summary object: %v", doc["fl_lat"])
	}
}

func TestMalformedExternalSummaryDropped(t *testing.T) {
	r := NewRegistry()
	r.SetExternal(`shard="9"`, Export{Summaries: map[string][]float64{"fl_bad": {1, 2}}})
	var b strings.Builder
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), "fl_bad") {
		t.Fatalf("short summary vector should be dropped:\n%s", b.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("fl_hot_total")
			s := r.Summary("fl_hot_seconds")
			for i := 0; i < 500; i++ {
				c.Inc()
				r.Gauge("fl_hot_gauge").Set(float64(i))
				s.Observe(float64(i))
				if i%100 == 0 {
					r.Export()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("fl_hot_total").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}

// TestSessionShapesConcurrent counts Table 1 shapes from many goroutines,
// each resolving the labelled series itself, while CounterFamily reads.
func TestSessionShapesConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter(Label(SessionShapes, "shape", "-v[]+^")).Inc()
				if i%100 == 0 {
					r.CounterFamily(SessionShapes, "shape")
				}
			}
			r.Counter(Label(SessionShapes, "shape", "-v[!")).Inc()
		}()
	}
	wg.Wait()
	got := r.CounterFamily(SessionShapes, "shape")
	if len(got) != 2 || got["-v[]+^"] != 4000 || got["-v[!"] != 8 {
		t.Fatalf("shapes = %v, want 4000 -v[]+^ and 8 -v[!", got)
	}
}

// TestProcSyscallCensus: Default's /metrics carries the process's read and
// write system calls from /proc/self/io, fresh at each scrape; another
// registry carries none, and where the file does not exist the series is
// absent.
func TestProcSyscallCensus(t *testing.T) {
	read, write, ok := ProcSyscalls()
	var b strings.Builder
	Default.WritePrometheus(&b)
	if !ok {
		if strings.Contains(b.String(), ProcSyscallsTotal) {
			t.Fatal("the census rendered without /proc/self/io")
		}
		t.Skip("no /proc/self/io")
	}
	var got [2]float64
	for _, line := range strings.Split(b.String(), "\n") {
		for i, op := range []string{"read", "write"} {
			if v, found := strings.CutPrefix(line, ProcSyscallsTotal+`{op="`+op+`"} `); found {
				got[i], _ = strconv.ParseFloat(v, 64)
			}
		}
	}
	// The scrape read the file once more than the first census did.
	if got[0] <= float64(read) || got[1] < float64(write) {
		t.Fatalf("scraped census read=%v write=%v, want past %d and at least %d", got[0], got[1], read, write)
	}
	if !strings.Contains(b.String(), "# TYPE "+ProcSyscallsTotal+" counter") {
		t.Fatal("the census is not typed as a counter")
	}
	var other strings.Builder
	NewRegistry().WritePrometheus(&other)
	if strings.Contains(other.String(), ProcSyscallsTotal) {
		t.Fatal("a registry other than Default carries the process census")
	}
}
