package flserver

import (
	"testing"
)

// TestPlanMarshaledOncePerVersion asserts the Configuration phase marshals
// the plan O(distinct runtime versions) per round, not O(devices): half the
// fleet runs runtime 1 (needing a lowered plan), half runs 3, so exactly
// two marshals must happen for 64 devices.
func TestPlanMarshaledOncePerVersion(t *testing.T) {
	st, err := runBenchRound(benchRoundConfig{Devices: 64, Dim: 128, MixedVersions: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 64 {
		t.Fatalf("completed %d/64 devices", st.Completed)
	}
	if st.PlanMarshals != 2 {
		t.Fatalf("plan marshals = %d, want 2 (one per distinct version)", st.PlanMarshals)
	}
}

// TestSingleVersionRoundMarshalsOnce is the degenerate case the
// per-device marshal bug lived in: a uniform fleet must marshal exactly
// once however many devices configure.
func TestSingleVersionRoundMarshalsOnce(t *testing.T) {
	st, err := runBenchRound(benchRoundConfig{Devices: 96, Dim: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 96 {
		t.Fatalf("completed %d/96 devices", st.Completed)
	}
	if st.PlanMarshals != 1 {
		t.Fatalf("plan marshals = %d, want 1", st.PlanMarshals)
	}
}

// TestConcurrentFanoutAndDecode drives full rounds over both transports
// with the fan-out pool sending configurations while reader goroutines
// decode reports concurrently. Its real teeth are under -race (CI runs
// this package with -race): any unsynchronized access between the worker
// pool, the readers, and the actor trips the detector.
func TestConcurrentFanoutAndDecode(t *testing.T) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"mem", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := runBenchRound(benchRoundConfig{Devices: 48, Dim: 512, TCP: tc.tcp})
			if err != nil {
				t.Fatal(err)
			}
			if st.Completed != 48 {
				t.Fatalf("completed %d/48 devices", st.Completed)
			}
			if st.Lost != 0 {
				t.Fatalf("lost %d devices on a healthy fleet", st.Lost)
			}
		})
	}
}
