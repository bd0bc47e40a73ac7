package flserver

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/metrics"
	"repro/internal/secagg"
	"repro/internal/storage"
)

// feedSecureGroup sends count updates with distinct device names prefixed
// by prefix, each Params {1,2} Weight 1.
func feedSecureGroup(t *testing.T, agg actor.Ref, sig chan struct{}, prefix string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		_ = agg.Send(msgAddUpdate{DeviceID: fmt.Sprintf("%s%d", prefix, i), Input: secInput(1, 1, 2)})
	}
	waitSignals(t, sig, count)
}

// assignedNames builds an Assigned list: the prefix-numbered devices that
// delivered plus extra lost-device names.
func assignedNames(prefix string, delivered int, lost ...string) []string {
	out := make([]string, 0, delivered+len(lost))
	for i := 0; i < delivered; i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, i))
	}
	return append(out, lost...)
}

func lastGroupResults(t *testing.T, got func() []actor.Message, want int) []msgGroupResult {
	t.Helper()
	var out []msgGroupResult
	for _, m := range got() {
		if res, ok := m.(msgGroupResult); ok {
			out = append(out, res)
		}
	}
	if len(out) != want {
		t.Fatalf("got %d group results, want %d", len(out), want)
	}
	return out
}

// TestTwoSecureGroupsFinalizeConcurrentlyUnderChurn extends the plain
// concurrent-finalization test with live churn: both groups carry a
// configured-but-lost device, one group's dealer poisons its shares, the
// other's responder forges its unmask reveal — all while the two secagg
// runs execute concurrently off the actor goroutines. Run under -race (CI
// does). Both groups must still commit, with the misbehaving devices
// blamed by name.
func TestTwoSecureGroupsFinalizeConcurrentlyUnderChurn(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)

	aggA := NewAggregator(2, master)
	// Participant 2 (device a1) deals poisoned shares: excluded before
	// masking, blamed via holder complaints.
	aggA.churn = func(n, tt int) secagg.Schedule { return secagg.Schedule{PoisonShare: []int{2}} }
	aggB := NewAggregator(2, master)
	// Participant 1 (device b0) forges its unmask response: rejected at
	// the commitment check, blamed, sum reconstructed from the rest.
	aggB.churn = func(n, tt int) secagg.Schedule { return secagg.Schedule{ForgeUnmask: []int{1}} }
	refA := sys.Spawn("agg-a", aggA)
	refB := sys.Spawn("agg-b", aggB)
	defer sys.Shutdown(master, refA, refB)

	feedSecureGroup(t, refA, sig, "a", 5)
	feedSecureGroup(t, refB, sig, "b", 5)
	// Each group was configured with 6 devices; the 6th never delivered
	// and enters the protocol as a real share-keys dropout.
	_ = refA.Send(msgFinalizeGroup{Assigned: assignedNames("a", 5, "a-lost")})
	_ = refB.Send(msgFinalizeGroup{Assigned: assignedNames("b", 5, "b-lost")})
	waitSignals(t, sig, 2)

	byBlame := map[string]msgGroupResult{}
	for _, res := range lastGroupResults(t, got, 2) {
		if res.Err != "" {
			t.Fatalf("group must commit under churn: %+v", res)
		}
		if len(res.Blamed) != 1 {
			t.Fatalf("want exactly one blamed device: %+v", res)
		}
		byBlame[res.Blamed[0][:2]] = res
	}
	resA, ok := byBlame["a1"]
	if !ok || !strings.Contains(resA.Blamed[0], "complaint") {
		t.Fatalf("poisoned dealer a1 not blamed via complaint: %+v", byBlame)
	}
	// Group A: 6 assigned, 1 lost, 1 poisoned-and-excluded → 4 survivors.
	if resA.Count != 4 || resA.Sum[0] != 4 || resA.Sum[1] != 8 {
		t.Fatalf("group A result: %+v", resA)
	}
	resB, ok := byBlame["b0"]
	if !ok || !strings.Contains(resB.Blamed[0], "forged") {
		t.Fatalf("forging responder b0 not blamed: %+v", byBlame)
	}
	// Group B: the forger's masked input was already in the online sum —
	// it survives as data even though its response was rejected.
	if resB.Count != 5 || resB.Sum[0] != 5 || resB.Sum[1] != 10 {
		t.Fatalf("group B result: %+v", resB)
	}
}

// TestSecureGroupLostDevicesBecomeDropouts: a configured device that never
// delivered shrinks the survivor set through the real dropout path (t-of-n
// reconstruction), not by silently resizing the instance.
func TestSecureGroupLostDevicesBecomeDropouts(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)
	agg := sys.Spawn("agg", NewAggregator(2, master))
	defer sys.Shutdown(master, agg)

	feedSecureGroup(t, agg, sig, "d", 4)
	_ = agg.Send(msgFinalizeGroup{Assigned: assignedNames("d", 4, "d-lost")})
	waitSignals(t, sig, 1)

	res := lastGroupResults(t, got, 1)[0]
	if res.Err != "" {
		t.Fatalf("group must commit: %+v", res)
	}
	if res.Count != 4 || res.Weight != 4 || res.Sum[0] != 4 || res.Sum[1] != 8 {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Blamed) != 0 {
		t.Fatalf("an honest dropout is lost, not blamed: %+v", res.Blamed)
	}
}

// TestSecureGroupBelowThresholdAbortsWithMetrics: when too few assigned
// devices deliver, the group degrades to a clean abort that names the lost
// devices and still carries the delivered reports' metrics.
func TestSecureGroupBelowThresholdAbortsWithMetrics(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)
	agg := sys.Spawn("agg", NewAggregator(2, master))
	defer sys.Shutdown(master, agg)

	for i := 0; i < 3; i++ {
		_ = agg.Send(msgAddUpdate{DeviceID: fmt.Sprintf("d%d", i), Input: secInput(1, 1, 2),
			Metrics: map[string]float64{"train_loss": 0.5}})
	}
	waitSignals(t, sig, 3)
	// 8 assigned, 3 delivered: below the majority threshold 5.
	_ = agg.Send(msgFinalizeGroup{Assigned: assignedNames("d", 3, "l1", "l2", "l3", "l4", "l5")})
	waitSignals(t, sig, 1)

	res := lastGroupResults(t, got, 1)[0]
	if res.Err == "" || !strings.Contains(res.Err, "3 of 8") || !strings.Contains(res.Err, "l5") {
		t.Fatalf("abort must attribute the lost devices: %+v", res)
	}
	if res.Sum != nil || res.Count != 0 {
		t.Fatalf("aborted group must not report a sum: %+v", res)
	}
	if len(res.Metrics["train_loss"]) != 3 {
		t.Fatalf("metrics swallowed on abort: %+v", res.Metrics)
	}
}

// TestSecureThresholdFractionOverride: the plan's SecAggThresholdFraction
// reaches the group through the injected threshold hook.
func TestSecureThresholdFractionOverride(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)
	agg := NewAggregator(2, master)
	// Tolerate up to half the group: t = ⌈0.5 n⌉.
	agg.threshold = func(n int) int { return (n + 1) / 2 }
	ref := sys.Spawn("agg", agg)
	defer sys.Shutdown(master, ref)

	feedSecureGroup(t, ref, sig, "d", 4)
	// 8 assigned, 4 delivered: the majority default (5) would abort, the
	// relaxed threshold (4) commits through 4-of-8 reconstruction.
	_ = ref.Send(msgFinalizeGroup{Assigned: assignedNames("d", 4, "l1", "l2", "l3", "l4")})
	waitSignals(t, sig, 1)

	res := lastGroupResults(t, got, 1)[0]
	if res.Err != "" {
		t.Fatalf("relaxed threshold must commit: %+v", res)
	}
	if res.Count != 4 || res.Sum[0] != 4 {
		t.Fatalf("result: %+v", res)
	}
}

// TestSecureFinalizeWatchdogUnstallsGroup: a secagg run that cannot make
// progress (here: wedged behind a saturated finalization gate) is
// abandoned by the per-group watchdog with an attributed error — the
// round gets its group result instead of hanging forever.
func TestSecureFinalizeWatchdogUnstallsGroup(t *testing.T) {
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()
	const finalizeTimeout = 100 * time.Millisecond
	got, sig, release := stalledSecureGroup(t, sys, finalizeTimeout)
	clock.expire(t, "finalize watchdog", clock.armed(t, finalizeTimeout, 1))
	waitSignals(t, sig, 1)

	res := lastGroupResults(t, got, 1)[0]
	if res.Err == "" || !strings.Contains(res.Err, "exceeded") {
		t.Fatalf("stalled finalization must time out with attribution: %+v", res)
	}
	if res.Sum != nil {
		t.Fatalf("timed-out group must not report a sum: %+v", res)
	}
	// Unblock the wedged run; its late result lands on a stopped actor and
	// is dropped — the double-report guard is exercised every run under
	// -race via the done flag.
	release()
	runtime.Gosched()
}

// TestRoundCarriesBlamedDevices: per-group blame survives the edge's merge
// of the group partials and the Coordinator's merge of the seals into the
// round record and the round trace.
func TestRoundCarriesBlamedDevices(t *testing.T) {
	store := newTraceMem()
	// Participant 2 of every group deals poisoned shares: excluded before
	// masking, blamed via holder complaints; each group commits on 3 of 4.
	out := runHookedRound(t, twoGroupSecurePlan(t), store, 8, func(int, int) secagg.Schedule {
		return secagg.Schedule{PoisonShare: []int{2}}
	})
	if out.Committed == nil {
		t.Fatalf("round failed: %s", out.FailReason)
	}
	if len(out.BlamedDevices) != 2 {
		t.Fatalf("blamed devices not merged: %+v", out.BlamedDevices)
	}
	for _, b := range out.BlamedDevices {
		if !strings.Contains(b, "dev-") || !strings.Contains(b, "complaint") {
			t.Fatalf("blame not attributed by device name: %q", b)
		}
	}
	if out.Completed != 6 {
		t.Fatalf("completed = %d, want 6 (one poisoner excluded per group)", out.Completed)
	}
	traces := store.RoundTraces()
	if len(traces) == 0 || traces[len(traces)-1].Blamed != 2 {
		t.Fatalf("round trace does not count the blamed devices: %+v", traces)
	}
}

// traceMem is a storage.Mem that keeps the round traces it is handed (the
// optional metrics.TraceStore half of a store), for tests that assert on them.
type traceMem struct {
	*storage.Mem
	mu     sync.Mutex
	traces []metrics.RoundTrace
}

func newTraceMem() *traceMem { return &traceMem{Mem: storage.NewMem()} }

// PutRoundTrace implements metrics.TraceStore.
func (s *traceMem) PutRoundTrace(t metrics.RoundTrace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, t)
	return nil
}

// RoundTraces returns every stored round trace in arrival order.
func (s *traceMem) RoundTraces() []metrics.RoundTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]metrics.RoundTrace(nil), s.traces...)
}
