package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func traceFor(round int64) obs.RoundTrace {
	return obs.RoundTrace{
		TaskID:     "pop/train",
		Round:      round,
		Start:      time.Unix(1700000000, 0).UTC(),
		TotalNanos: int64(time.Second),
		Phases:     map[string]int64{obs.PhaseCommit: int64(5 * time.Millisecond)},
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
	var store obs.TraceStore = s
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
		var tr obs.RoundTrace
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if tr.Round != int64(i+1) || !tr.Committed || tr.Phases[obs.PhaseCommit] == 0 {
			t.Fatalf("line %d decoded wrong: %+v", i, tr)
		}
	}
}
