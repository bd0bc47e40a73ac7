package chaos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/tensor"
)

func ckpt(task string, round int64, params ...float64) *checkpoint.Checkpoint {
	return &checkpoint.Checkpoint{TaskName: task, Round: round, Weight: 1, Params: tensor.Vector(params)}
}

func TestWatchStoreLineage(t *testing.T) {
	w := NewWatchStore(storage.NewMem())
	for _, r := range []int64{1, 2, 3} {
		if err := w.PutCheckpoint(ckpt("t", r, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if rep := Verify(w.LineageProbe()); !rep.OK() {
		t.Fatalf("clean lineage failed: %v", rep)
	}

	// Double commit.
	w2 := NewWatchStore(storage.NewMem())
	_ = w2.PutCheckpoint(ckpt("t", 1, 1))
	_ = w2.PutCheckpoint(ckpt("t", 1, 2))
	if rep := Verify(w2.LineageProbe()); rep.OK() {
		t.Fatal("double commit not caught")
	} else if !strings.Contains(rep.Err().Error(), "double commit") {
		t.Fatalf("wrong failure: %v", rep.Err())
	}

	// Fork (regression past the head).
	w3 := NewWatchStore(storage.NewMem())
	_ = w3.PutCheckpoint(ckpt("t", 5, 1))
	_ = w3.PutCheckpoint(ckpt("t", 3, 2))
	if rep := Verify(w3.LineageProbe()); rep.OK() {
		t.Fatal("lineage fork not caught")
	}
}

func TestSumProbe(t *testing.T) {
	ref := []*checkpoint.Checkpoint{ckpt("t", 1, 0.5, 0.5), ckpt("t", 2, 0.25, 0.75)}
	good := []*checkpoint.Checkpoint{ckpt("t", 1, 0.5, 0.5)}
	if rep := Verify(SumProbe(good, ref, 1e-9)); !rep.OK() {
		t.Fatalf("matching lineage failed: %v", rep)
	}
	bad := []*checkpoint.Checkpoint{ckpt("t", 2, 0.25, 0.80)}
	if rep := Verify(SumProbe(bad, ref, 1e-9)); rep.OK() {
		t.Fatal("diverged sum not caught")
	}
	if rep := Verify(SumProbe(nil, ref, 1e-9)); rep.OK() {
		t.Fatal("empty lineage should fail (nothing was checked)")
	}
}

func TestCounterWatch(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("test_events_total")
	w := NewCounterWatch(reg)
	w.Sample()
	c.Add(5)
	w.Sample()
	if rep := Verify(w.Probe()); !rep.OK() {
		t.Fatalf("monotonic counters failed: %v", rep)
	}
}

func TestQuotaProbe(t *testing.T) {
	ok := func() (QuotaLedger, error) {
		return QuotaLedger{Granted: 10, Consumed: 6, Revoked: 4}, nil
	}
	if rep := Verify(QuotaProbe(ok)); !rep.OK() {
		t.Fatalf("balanced ledger failed: %v", rep)
	}
	leak := func() (QuotaLedger, error) {
		return QuotaLedger{Granted: 10, Consumed: 6, Revoked: 3}, nil
	}
	rep := Verify(QuotaProbe(leak), CheckFunc{Probe: "always-green", Fn: func() error { return nil }})
	if rep.OK() {
		t.Fatal("leaked ledger not caught")
	}
	if len(rep.Passed) != 1 || rep.Passed[0] != "always-green" {
		t.Fatalf("passed: %v", rep.Passed)
	}
	if !strings.Contains(rep.String(), "FAIL quota-conservation") {
		t.Fatalf("report: %s", rep.String())
	}
}

func TestConnProbeDrains(t *testing.T) {
	in := New(1, Spec{}, nil)
	if rep := Verify(ConnProbe(in)); !rep.OK() {
		t.Fatalf("fresh injector conn probe: %v", rep)
	}
	_ = fmt.Sprint() // keep fmt imported alongside future edits
}
