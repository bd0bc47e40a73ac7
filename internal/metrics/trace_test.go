package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

type memTraceStore struct{ traces []RoundTrace }

func (m *memTraceStore) PutRoundTrace(t RoundTrace) error {
	m.traces = append(m.traces, t)
	return nil
}

func sampleTrace() RoundTrace {
	return RoundTrace{
		Population: "gboard",
		TaskID:     "gboard/train",
		Round:      3,
		Start:      time.Unix(1700000000, 0).UTC(),
		TotalNanos: int64(2 * time.Second),
		Phases: map[string]int64{
			PhaseCheckin:      int64(100 * time.Millisecond),
			PhaseConfigure:    int64(50 * time.Millisecond),
			PhaseReportWindow: int64(1500 * time.Millisecond),
			PhaseCommit:       int64(20 * time.Millisecond),
		},
		Committed: true,
		Reports:   20,
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	line := sampleTrace().MarshalJSONL()
	if line[len(line)-1] != '\n' {
		t.Fatal("JSONL line must be newline-terminated")
	}
	var got RoundTrace
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.TaskID != "gboard/train" || got.Round != 3 || !got.Committed {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Phases[PhaseReportWindow] != int64(1500*time.Millisecond) {
		t.Fatalf("phases lost: %+v", got.Phases)
	}
}

func TestRecordTrace(t *testing.T) {
	r := NewRegistry()
	store := &memTraceStore{}
	if err := r.RecordTrace(sampleTrace(), store); err != nil {
		t.Fatal(err)
	}
	fail := sampleTrace()
	fail.Committed = false
	fail.FailReason = "too few reports"
	if err := r.RecordTrace(fail, nil); err != nil {
		t.Fatal(err)
	}

	if len(store.traces) != 1 {
		t.Fatalf("stored %d traces, want 1 (nil store must not persist)", len(store.traces))
	}
	if got := r.Counter("fl_rounds_committed_total").Value(); got != 1 {
		t.Fatalf("committed counter = %d", got)
	}
	if got := r.Counter("fl_rounds_failed_total").Value(); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
	if got := r.Counter("fl_round_reports_total").Value(); got != 40 {
		t.Fatalf("reports counter = %d", got)
	}
	snap := r.Summary(Label("fl_round_phase_seconds", "phase", PhaseReportWindow)).Snapshot()
	if snap.Count != 2 || snap.Mean != 1.5 {
		t.Fatalf("phase summary: %+v", snap)
	}
	if snap := r.Summary("fl_round_total_seconds").Snapshot(); snap.Count != 2 {
		t.Fatalf("total summary: %+v", snap)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `fl_round_phase_seconds{phase="report_window",quantile="0.5"}`) {
		t.Fatalf("phase series missing from /metrics:\n%s", b.String())
	}
}

func TestPhasesListCoversConstants(t *testing.T) {
	want := map[string]bool{
		PhaseCheckin: true, PhaseConfigure: true, PhaseReportWindow: true,
		PhaseEdgeAccumulate: true, PhaseSecaggAdvert: true, PhaseSecaggShare: true,
		PhaseSecaggCommit: true, PhaseSecaggUnmask: true, PhaseCommit: true,
	}
	if len(Phases) != len(want) {
		t.Fatalf("Phases has %d entries, want %d", len(Phases), len(want))
	}
	for _, p := range Phases {
		if !want[p] {
			t.Fatalf("unknown phase %q", p)
		}
	}
}
