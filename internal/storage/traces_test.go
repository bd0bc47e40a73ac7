package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func traceFor(round int64) metrics.RoundTrace {
	return metrics.RoundTrace{
		TaskID:     "pop/train",
		Round:      round,
		Start:      time.Unix(1700000000, 0).UTC(),
		TotalNanos: int64(time.Second),
		Phases:     map[string]int64{metrics.PhaseCommit: int64(5 * time.Millisecond)},
		Committed:  true,
		Reports:    12,
	}
}

func TestFileRoundTracesJSONL(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var store metrics.TraceStore = s
	for round := int64(1); round <= 3; round++ {
		if err := store.PutRoundTrace(traceFor(round)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, tracesFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("traces.jsonl has %d lines:\n%s", len(lines), b)
	}
	for i, line := range lines {
		var tr metrics.RoundTrace
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if tr.Round != int64(i+1) || !tr.Committed || tr.Phases[metrics.PhaseCommit] == 0 {
			t.Fatalf("line %d decoded wrong: %+v", i, tr)
		}
	}
}
