package metrics

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
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
//	/dashboard    the Sec. 5 operator view of the same rows
func (r *Registry) Handler(opts ...HandlerOption) http.Handler {
	st := &httpState{title: "fl operator dashboard"}
	for _, opt := range opts {
		opt(st)
	}
	serve := func(contentType string, render func(*strings.Builder)) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			var b strings.Builder
			render(&b)
			w.Header().Set("Content-Type", contentType)
			io.WriteString(w, b.String())
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", serve("text/plain; version=0.0.4; charset=utf-8", r.WritePrometheus))
	mux.Handle("/debug/vars", serve("application/json; charset=utf-8", r.WriteJSON))
	mux.Handle("/dashboard", serve("text/plain; charset=utf-8", func(b *strings.Builder) { r.writeDashboard(b, st) }))
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

// writeDashboard renders the Sec. 5 operator view ("aggregated and presented
// in dashboards to be analyzed"), read off the same rows as /metrics: every
// counter series, a traffic line summing NetTxBytes and NetRxBytes, a
// selection-pool line summing the fl_selector_pooled gauges of every
// population and shard, and the progress callback's per-population state.
func (r *Registry) writeDashboard(b *strings.Builder, st *httpState) {
	fmt.Fprintf(b, "=== %s ===\ncounters:\n", st.title)
	var down, up, pooled float64
	for _, row := range r.collect() {
		switch {
		case row.kind == 'g' && baseName(row.name) == "fl_selector_pooled":
			pooled += row.val
		case row.kind == 'c':
			fmt.Fprintf(b, "  %-32s %12d\n", row.name, int64(row.val))
			switch baseName(row.name) {
			case NetTxBytes:
				down += row.val
			case NetRxBytes:
				up += row.val
			}
		}
	}
	fmt.Fprintf(b, "traffic: %0.1f MB down / %0.1f MB up\n", down/1e6, up/1e6)
	fmt.Fprintf(b, "selection pool: %.0f device(s) checked in and waiting for the next round\n", pooled)
	if st.progress != nil {
		if pops := st.progress(); len(pops) > 0 {
			b.WriteString(FormatProgress(pops) + "\n")
		}
	}
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
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler(opts...)}
	go srv.Serve(l)
	return &Server{l: l, srv: srv}, nil
}
