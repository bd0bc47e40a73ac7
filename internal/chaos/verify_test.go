package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
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

func TestWatchStoreCatchesAChangedCommit(t *testing.T) {
	// A commit changed after the next one is caught at that commit; the
	// head changed after the last one is caught by the probe. -0 and +0
	// compare equal but differ in their bits.
	w := NewWatchStore(storage.NewMem())
	c1 := ckpt("t", 1, 0, 1)
	_ = w.PutCheckpoint(c1)
	c1.Params[0] = math.Copysign(0, -1)
	_ = w.PutCheckpoint(ckpt("t", 2, 1, 1))
	if rep := Verify(w.LineageProbe()); rep.OK() || !strings.Contains(rep.Err().Error(), "committed round 1 changed after its commit") {
		t.Fatalf("a commit written over after the next one: %v", rep)
	}
	w2 := NewWatchStore(storage.NewMem())
	c2 := ckpt("t", 1, 0, 1)
	_ = w2.PutCheckpoint(c2)
	if rep := Verify(w2.LineageProbe()); !rep.OK() {
		t.Fatalf("an untouched head failed: %v", rep)
	}
	c2.Params[1] = 2
	if rep := Verify(w2.LineageProbe()); rep.OK() {
		t.Fatal("a head written over after its commit passed")
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
	if rep := Verify(QuotaProbe(QuotaLedger{Granted: 10, Consumed: 6, Revoked: 4}, true)); !rep.OK() {
		t.Fatalf("balanced ledger failed: %v", rep)
	}
	if rep := Verify(QuotaProbe(QuotaLedger{Granted: 10, Consumed: 6, Outstanding: 4}, false)); !rep.OK() {
		t.Fatalf("a ledger read mid-round failed for its outstanding slots: %v", rep)
	}
	leak := QuotaLedger{Granted: 10, Consumed: 6, Revoked: 3}
	rep := Verify(QuotaProbe(leak, true), Probe{"always-green", func() error { return nil }})
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
	clock := simclock.New(time.Time{})
	in := New(1, Spec{Rules: []Rule{{Role: RoleDevice, Delay: time.Second}}}, clock)
	a, _ := transport.Pipe(clock)
	conn := in.WrapConn(RoleDevice, a) // a delayed link: its sender runs on the rig
	if rep := Verify(TeardownProbe(clock, in)); rep.OK() {
		t.Fatal("an open link and its sender passed the teardown probe")
	}
	_ = conn.Close()
	if err := clock.Run(0, func() bool { return true }); err != nil {
		t.Fatal(err)
	}
	if rep := Verify(TeardownProbe(clock, in)); !rep.OK() {
		t.Fatalf("a closed link failed the teardown probe: %v", rep)
	}
}
