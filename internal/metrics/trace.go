package metrics

import (
	"encoding/json"
	"time"
)

// Round lifecycle phase names, in lifecycle order. Every committed round's
// trace record carries a duration for each phase that ran; secagg phases
// appear only on secure-aggregation rounds.
const (
	PhaseCheckin        = "checkin"         // round open → first devices delivered by the Selectors
	PhaseConfigure      = "configure"       // first plan/checkpoint push → last one done
	PhaseReportWindow   = "report_window"   // round open → window close (seal)
	PhaseEdgeAccumulate = "edge_accumulate" // seal → edge partial merged (stripes, reduce, secagg)
	PhaseSecaggAdvert   = "secagg_advertise"
	PhaseSecaggShare    = "secagg_share"
	PhaseSecaggCommit   = "secagg_commit"
	PhaseSecaggUnmask   = "secagg_unmask"
	PhaseCommit         = "commit" // aggregate apply + checkpoint/metrics write
)

// Phases lists every phase name in lifecycle order, for renderers and
// tests that want a stable iteration order over a trace's phase map.
var Phases = []string{
	PhaseCheckin, PhaseConfigure, PhaseReportWindow, PhaseEdgeAccumulate,
	PhaseSecaggAdvert, PhaseSecaggShare, PhaseSecaggCommit, PhaseSecaggUnmask,
	PhaseCommit,
}

// RoundTrace is the structured per-round trace record, one JSONL line per
// round, written to storage alongside checkpoints (Sec. 7.4: round-level
// summaries, never per-device logs). Durations are nanoseconds.
type RoundTrace struct {
	Population string           `json:"population,omitempty"`
	TaskID     string           `json:"task_id"`
	TaskName   string           `json:"task_name,omitempty"`
	Round      int64            `json:"round"`
	Start      time.Time        `json:"start"`
	TotalNanos int64            `json:"total_ns"`
	Phases     map[string]int64 `json:"phases_ns"`
	Committed  bool             `json:"committed"`
	Reports    int              `json:"reports"`
	Lost       int              `json:"lost,omitempty"`
	Aborted    int              `json:"aborted,omitempty"`
	Blamed     int              `json:"blamed,omitempty"`
	FailReason string           `json:"fail_reason,omitempty"`
}

// MarshalJSONL renders the trace as one newline-terminated JSON line.
func (t RoundTrace) MarshalJSONL() []byte {
	b, err := json.Marshal(t)
	if err != nil {
		// Every field is a JSON-safe scalar or map; Marshal cannot fail
		// unless the schema regresses, which the round-trip test catches.
		return []byte("{}\n")
	}
	return append(b, '\n')
}

// TraceStore is implemented by storage backends that can persist round
// traces. It is deliberately NOT part of storage.Store: trace persistence
// is optional, and test doubles that embed the Store interface keep
// compiling. Callers type-assert: `if ts, ok := store.(metrics.TraceStore); ok`.
type TraceStore interface {
	PutRoundTrace(t RoundTrace) error
}

// RecordTrace folds one round's trace into the registry — per-phase
// latency summaries (fl_round_phase_seconds{phase=...}), round totals, and
// commit/fail counters — and persists it if store is non-nil. This is the
// single choke point all round completions go through, so /metrics phase
// latencies and the JSONL trace stream can never disagree.
func (r *Registry) RecordTrace(t RoundTrace, store TraceStore) error {
	for phase, ns := range t.Phases {
		r.Summary(Label("fl_round_phase_seconds", "phase", phase)).ObserveDuration(time.Duration(ns))
	}
	r.Summary("fl_round_total_seconds").ObserveDuration(time.Duration(t.TotalNanos))
	if t.Committed {
		r.Counter("fl_rounds_committed_total").Inc()
	} else {
		r.Counter("fl_rounds_failed_total").Inc()
	}
	r.Counter("fl_round_reports_total").Add(int64(t.Reports))
	if store == nil {
		return nil
	}
	return store.PutRoundTrace(t)
}
