package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/analytics"
)

// HandlerOption configures the HTTP surface.
type HandlerOption func(*httpState)

type httpState struct {
	title    string
	progress func() []PopulationProgress
}

// WithTitle sets the /dashboard title.
func WithTitle(title string) HandlerOption {
	return func(h *httpState) { h.title = title }
}

// WithProgress supplies the live per-population progress snapshot rendered
// on /dashboard below the counter block.
func WithProgress(fn func() []PopulationProgress) HandlerOption {
	return func(h *httpState) { h.progress = fn }
}

// Handler returns the observability HTTP surface:
//
//	/metrics      Prometheus text exposition (local + shipped externals)
//	/debug/vars   the same series as a flat expvar-style JSON object
//	/debug/pprof  the standard net/http/pprof handlers
//	/dashboard    the analytics.Dashboard operator view from live data
func (r *Registry) Handler(opts ...HandlerOption) http.Handler {
	st := &httpState{title: "fl operator dashboard"}
	for _, opt := range opts {
		opt(st)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteJSON(&b)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, r.renderDashboard(st))
	})
	// pprof is registered explicitly on this mux (not the global
	// DefaultServeMux) so the profile surface exists only behind
	// -obs-listen, never on device- or shard-facing listeners.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// renderDashboard adapts live registry data onto the existing sim-era
// analytics.Dashboard renderer: every counter series feeds the counter
// block, fl_net_{tx,rx}_bytes_total feed the traffic line, the
// fl_selector_pooled gauges of every population and shard sum into the
// selection-pool line, and the progress callback appends per-population
// round state.
func (r *Registry) renderDashboard(st *httpState) string {
	counters := analytics.NewCounters()
	traffic := analytics.NewTraffic()
	pooled := 0.0
	for _, row := range r.collect() {
		if row.kind == 'g' && baseName(row.name) == "fl_selector_pooled" {
			pooled += row.val
		}
		if row.kind != 'c' {
			continue
		}
		counters.Add(row.name, int64(row.val))
		switch baseName(row.name) {
		case "fl_net_tx_bytes_total":
			traffic.AddDownload(int(row.val))
		case "fl_net_rx_bytes_total":
			traffic.AddUpload(int(row.val))
		}
	}
	d := analytics.Dashboard{Title: st.title, Counters: counters, Traffic: traffic}
	out := d.Render() + fmt.Sprintf("selection pool: %.0f device(s) checked in and waiting for the next round\n", pooled)
	if st.progress != nil {
		if pops := st.progress(); len(pops) > 0 {
			out += FormatProgress(pops) + "\n"
		}
	}
	return out
}

// Server is a running observability HTTP listener.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0" listeners in tests).
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve binds addr and serves the Handler in a background goroutine. An
// empty addr is a no-op returning (nil, nil), so call sites can pass the
// -obs-listen flag value through unconditionally.
func (r *Registry) Serve(addr string, opts ...HandlerOption) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler(opts...)}
	go srv.Serve(l)
	return &Server{l: l, srv: srv}, nil
}
