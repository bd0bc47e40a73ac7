package metrics

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Series that one package writes and another reads by name: a server's
// frame bytes out and in (Fig. 9's download and upload; the transport counts
// them on /metrics, internal/sim in its figures) and device sessions by
// Table 1 shape (label "shape").
const (
	NetTxBytes    = "fl_net_tx_bytes_total"
	NetRxBytes    = "fl_net_rx_bytes_total"
	SessionShapes = "fl_session_shapes_total"
)

// Counter is a monotonically increasing int64. All methods are lock-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can move in either direction, stored as
// math.Float64bits in an atomic word.
type Gauge struct{ v atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(x float64) { g.v.Store(math.Float64bits(x)) }

// Add moves the value by delta, so several writers can share one series.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// summaryFields is the fixed order of Export's summary series:
// [count, mean, std, min, max, p50, p90, p99]. TelemetrySnapshot frames
// carry summaries in this order, so it is part of the wire contract.
var summaryFields = []string{"count", "mean", "std", "min", "max", "p50", "p90", "p99"}

func summaryValues(snap Snapshot) []float64 {
	return []float64{
		float64(snap.Count), snap.Mean, snap.Std,
		snap.Min, snap.Max, snap.P50, snap.P90, snap.P99,
	}
}

// Export is one process's local telemetry at a point in time, the payload
// of a TelemetrySnapshot wire frame. Summaries use summaryFields order.
type Export struct {
	Counters  map[string]int64
	Gauges    map[string]float64
	Summaries map[string][]float64
}

// Registry holds named counters, gauges and Summaries. Instruments are
// cached by the call sites that sit on hot paths (the report loop holds
// *Counter pointers and does nothing but atomic adds); the registry lock is
// only taken at registration and export time.
//
// A registry can also hold "external" snapshots — telemetry shipped from
// other processes (shard selectors) over TelemetrySnapshot wire frames.
// Externals are merged into rendered output with an injected label
// (e.g. shard="1") but are excluded from Export, so a selector's own
// export never echoes data back and forth.
//
// The zero value is unusable; use NewRegistry or the package-level Default.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	summaries map[string]*Summary
	// externals maps an injected label (`shard="1"`) to the most recent
	// Export shipped by that peer.
	externals map[string]Export
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		summaries: make(map[string]*Summary),
		externals: make(map[string]Export),
	}
}

// Default is the process-wide registry. Library code registers against it
// so a binary gets fleet instrumentation by linking the packages, without
// plumbing a registry handle through every constructor.
var Default = NewRegistry()

// Label renders a metric name with label pairs in Prometheus form:
// Label("fl_seals_total", "shard", "1") → `fl_seals_total{shard="1"}`.
// Call it once at registration time, not per observation.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter registered under name, creating it on first
// use. Hot paths should call this once and cache the pointer.
func (r *Registry) Counter(name string) *Counter { return instrument(r, r.counters, name, nil) }

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return instrument(r, r.gauges, name, nil) }

// Summary returns the summary registered under name, creating it on first
// use.
func (r *Registry) Summary(name string) *Summary { return instrument(r, r.summaries, name, NewSummary) }

// instrument returns m[name], registering mk() (or a zero T) on first use.
func instrument[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = new(T)
		if mk != nil {
			v = mk()
		}
		m[name] = v
	}
	return v
}

// Export snapshots the registry's LOCAL instruments (externals excluded —
// re-exporting a peer's data would loop it through the fleet twice).
func (r *Registry) Export() Export {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	sums := make(map[string]*Summary, len(r.summaries))
	for name, s := range r.summaries {
		sums[name] = s
	}
	r.mu.Unlock()

	// Summary snapshots take each summary's own lock; do it outside ours.
	summaries := make(map[string][]float64, len(sums))
	for name, s := range sums {
		summaries[name] = summaryValues(s.Snapshot())
	}
	return Export{Counters: counters, Gauges: gauges, Summaries: summaries}
}

// SetExternal installs (or replaces) a peer's exported telemetry under the
// given label, e.g. SetExternal(`shard="1"`, export). Rendered series gain
// the label; Export ignores externals.
func (r *Registry) SetExternal(label string, export Export) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.externals[label] = export
}

// DropExternal forgets the peer shipped under label: its series leave the
// rendered output (the peer is gone, not frozen at its last snapshot).
func (r *Registry) DropExternal(label string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.externals, label)
}

// CounterFamily reads the local counters of one family by the value of one
// label: CounterFamily(SessionShapes, "shape") → {"-v[]+^": 75, …}.
func (r *Registry) CounterFamily(family, key string) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range r.Export().Counters {
		rest, ok := strings.CutPrefix(name, family+"{"+key+"=")
		if val, err := strconv.Unquote(strings.TrimSuffix(rest, "}")); ok && err == nil {
			out[val] = v
		}
	}
	return out
}

// injectLabel appends label to a metric name, merging with any label set
// the name already carries: ("a", `shard="1"`) → `a{shard="1"}`;
// (`a{op="x"}`, `shard="1"`) → `a{op="x",shard="1"}`.
func injectLabel(name, label string) string {
	if label == "" {
		return name
	}
	if i := strings.LastIndexByte(name, '}'); i >= 0 && strings.Contains(name, "{") {
		return name[:i] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// series is one flattened export row used by the renderers.
type series struct {
	name string
	kind byte // 'c' counter, 'g' gauge, 's' summary
	val  float64
	sum  []float64 // summary values, summaryFields order
}

// collect flattens local instruments plus all externals into sorted rows.
func (r *Registry) collect() []series {
	local := r.Export()
	r.mu.Lock()
	ext := maps.Clone(r.externals)
	r.mu.Unlock()

	var rows []series
	add := func(label string, e Export) {
		for name, v := range e.Counters {
			rows = append(rows, series{name: injectLabel(name, label), kind: 'c', val: float64(v)})
		}
		for name, v := range e.Gauges {
			rows = append(rows, series{name: injectLabel(name, label), kind: 'g', val: v})
		}
		for name, v := range e.Summaries {
			if len(v) != len(summaryFields) {
				continue // malformed peer frame; drop rather than misrender
			}
			rows = append(rows, series{name: injectLabel(name, label), kind: 's', sum: v})
		}
	}
	add("", local)
	for _, label := range slices.Sorted(maps.Keys(ext)) {
		add(label, ext[label])
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// baseName strips a label set: `a{shard="1"}` → `a`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelSet returns the braced label body, without braces: `a{x="1"}` → `x="1"`.
func labelSet(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders every series (local + external) in Prometheus
// text exposition format. Summaries become quantile series plus _sum-less
// count/mean/min/max gauge series (the P² summary has no running sum of
// observations exposed per quantile window, so mean stands in).
func (r *Registry) WritePrometheus(w *strings.Builder) {
	rows := r.collect()
	typed := make(map[string]bool)
	writeType := func(family, kind string) {
		if !typed[family] {
			typed[family] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
		}
	}
	for _, row := range rows {
		family := baseName(row.name)
		switch row.kind {
		case 'c':
			writeType(family, "counter")
			fmt.Fprintf(w, "%s %v\n", row.name, row.val)
		case 'g':
			writeType(family, "gauge")
			fmt.Fprintf(w, "%s %v\n", row.name, row.val)
		case 's':
			writeType(family, "summary")
			labels := labelSet(row.name)
			quant := func(q string, v float64) {
				if labels == "" {
					fmt.Fprintf(w, "%s{quantile=%q} %v\n", family, q, v)
				} else {
					fmt.Fprintf(w, "%s{%s,quantile=%q} %v\n", family, labels, q, v)
				}
			}
			// summaryFields order: count mean std min max p50 p90 p99.
			quant("0.5", row.sum[5])
			quant("0.9", row.sum[6])
			quant("0.99", row.sum[7])
			fmt.Fprintf(w, "%s %v\n", injectLabel(family+"_count", labels), row.sum[0])
			fmt.Fprintf(w, "%s %v\n", injectLabel(family+"_sum", labels), row.sum[0]*row.sum[1])
		}
	}
}

// WriteJSON renders every series as a flat expvar-style JSON object:
// counters and gauges as numbers, summaries as field→value objects.
// Hand-rolled so NaN/Inf (possible in gauges fed from estimates) render
// as null instead of making the document unparseable.
func (r *Registry) WriteJSON(w *strings.Builder) {
	rows := r.collect()
	w.WriteByte('{')
	for i, row := range rows {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:", row.name)
		switch row.kind {
		case 'c', 'g':
			writeJSONNumber(w, row.val)
		case 's':
			w.WriteByte('{')
			for j, f := range summaryFields {
				if j > 0 {
					w.WriteByte(',')
				}
				fmt.Fprintf(w, "%q:", f)
				writeJSONNumber(w, row.sum[j])
			}
			w.WriteByte('}')
		}
	}
	w.WriteString("}\n")
}

func writeJSONNumber(w *strings.Builder, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.WriteString("null")
		return
	}
	fmt.Fprintf(w, "%v", v)
}
