package flserver

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/tasks"
)

// feedSecureGroup returns a secure group's buffer holding count updates
// with distinct device names prefixed by prefix, each Params {1,2} Weight 1.
func feedSecureGroup(t *testing.T, prefix string, count int) *robust.Buffer {
	t.Helper()
	buf := robust.NewBuffer(3, nil)
	for i := 0; i < count; i++ {
		secureAdd(t, buf, fmt.Sprintf("%s%d", prefix, i), nil, 1, 1, 2)
	}
	return buf
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
// other's responder forges its unmask reveal, each a fault on its link —
// all while the two secagg runs execute concurrently on the groups' actor
// goroutines. Run under -race (CI does). Both groups must still commit,
// with the misbehaving devices blamed by name.
func TestTwoSecureGroupsFinalizeConcurrentlyUnderChurn(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)

	aggA := newAggregator(2, master)
	// Participant 2 (device a1) deals poisoned shares: excluded before
	// masking, blamed via holder complaints.
	aggA.link = secagg.Faults{2: secagg.Poison}.Link
	aggB := newAggregator(2, master)
	// Participant 1 (device b0) forges its unmask response: rejected at
	// the commitment check, blamed, sum reconstructed from the rest.
	aggB.link = secagg.Faults{1: secagg.Forge}.Link
	refA := sys.Spawn("agg-a", aggA)
	refB := sys.Spawn("agg-b", aggB)
	defer sys.Shutdown(master, refA, refB)

	// Each group was configured with 6 devices; the 6th never delivered
	// and enters the protocol as a real share-keys dropout.
	_ = refA.Send(msgFinalizeGroup{Assigned: assignedNames("a", 5, "a-lost"), Buf: feedSecureGroup(t, "a", 5)})
	_ = refB.Send(msgFinalizeGroup{Assigned: assignedNames("b", 5, "b-lost"), Buf: feedSecureGroup(t, "b", 5)})
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
	agg := sys.Spawn("agg", newAggregator(2, master))
	defer sys.Shutdown(master, agg)

	_ = agg.Send(msgFinalizeGroup{Assigned: assignedNames("d", 4, "d-lost"), Buf: feedSecureGroup(t, "d", 4)})
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
	agg := sys.Spawn("agg", newAggregator(2, master))
	defer sys.Shutdown(master, agg)

	buf := robust.NewBuffer(3, nil)
	for i := 0; i < 3; i++ {
		secureAdd(t, buf, fmt.Sprintf("d%d", i), map[string]float64{"train_loss": 0.5}, 1, 1, 2)
	}
	// 8 assigned, 3 delivered: below the majority threshold 5.
	_ = agg.Send(msgFinalizeGroup{Assigned: assignedNames("d", 3, "l1", "l2", "l3", "l4", "l5"), Buf: buf})
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
	agg := newAggregator(2, master)
	// Tolerate up to half the group: t = ⌈0.5 n⌉.
	agg.threshold = func(n int) int { return (n + 1) / 2 }
	ref := sys.Spawn("agg", agg)
	defer sys.Shutdown(master, ref)

	// 8 assigned, 4 delivered: the majority default (5) would abort, the
	// relaxed threshold (4) commits through 4-of-8 reconstruction.
	_ = ref.Send(msgFinalizeGroup{Assigned: assignedNames("d", 4, "l1", "l2", "l3", "l4"), Buf: feedSecureGroup(t, "d", 4)})
	waitSignals(t, sig, 1)

	res := lastGroupResults(t, got, 1)[0]
	if res.Err != "" {
		t.Fatalf("relaxed threshold must commit: %+v", res)
	}
	if res.Count != 4 || res.Sum[0] != 4 {
		t.Fatalf("result: %+v", res)
	}
}

// TestRoundCarriesBlamedDevices: per-group blame survives the edge's merge
// of the group partials and the Coordinator's merge of the seals into the
// round record and the round trace. The edge is a real EdgeRound whose two
// groups of 4 run over links that poison participant 2's deal: each group
// blames that device by name and commits on 3.
func TestRoundCarriesBlamedDevices(t *testing.T) {
	store := newTraceMem()
	out := runLinkedRound(t, store, secagg.Faults{2: secagg.Poison}, secagg.Faults{2: secagg.Poison})
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

// runLinkedRound runs one round of twoGroupSecurePlan through a Coordinator
// whose one Edge is a linkedEdge, group g's links under faults[g], and
// returns the Coordinator's record of it.
func runLinkedRound(t *testing.T, store storage.Store, faults ...secagg.Faults) roundOutcome {
	t.Helper()
	ts, err := tasks.New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Seed([]*plan.Plan{twoGroupSecurePlan(t)}, simStart); err != nil {
		t.Fatal(err)
	}
	outcomes := make(chan roundOutcome, 1)
	sys := actor.NewSystem()
	defer sys.Shutdown()
	edge := &linkedEdge{t: t, sys: sys, faults: faults}
	coord := sys.Spawn("coordinator/pop", newCoordinator(CoordinatorParams{
		Population: "pop", Lock: actor.NewLockService(), Store: store, Tasks: ts,
		Edges: []Edge{edge}, MaxRounds: 1, onOutcome: func(out roundOutcome) { outcomes <- out },
	}))
	if err := coord.Send(msgTick{}); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-outcomes:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("the round never settled")
		return roundOutcome{}
	}
}

// linkedEdge is an Edge whose round is a real EdgeRound with no devices:
// at its start its secure group g is replaced by an Aggregator over
// faults[g]'s links, holding one delivered report of ones, with a train
// loss, from each of its 4 assigned devices, and it seals at once.
type linkedEdge struct {
	t      *testing.T
	sys    *actor.System
	faults []secagg.Faults
}

func (e *linkedEdge) Open(cfg *EdgeRoundConfig, coord actor.Ref) error {
	er := newEdgeRound(*cfg, nil, func(seal EdgeSeal) { _ = DeliverSeal(coord, e, seal) })
	ref := e.sys.Spawn("edge/pop", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		er.Receive(ctx, msg)
		if _, start := msg.(msgEdgeStart); !start {
			return
		}
		ones := make([]float64, cfg.Dim)
		for i := range ones {
			ones[i] = 1
		}
		for g, spawned := range er.aggs {
			spawned.Stop()
			agg := newAggregator(cfg.Dim, ctx.Self)
			agg.link = e.faults[g].Link
			er.aggs[g] = ctx.Spawn(fmt.Sprintf("edge/pop/linked-%d", g), agg)
			for i := range 4 {
				name := fmt.Sprintf("dev-%d", 4*g+i)
				secureAdd(e.t, er.bufs[g], name, map[string]float64{"train_loss": 1}, 1, ones...)
				er.assigned[g] = append(er.assigned[g], name)
			}
		}
		_ = ctx.Self.Send(msgEdgeFinalize{})
	}))
	return ref.Send(msgEdgeStart{})
}
func (e *linkedEdge) Finalize(string, int64) error { return nil }
func (e *linkedEdge) Abort(string, int64, string)  {}
func (e *linkedEdge) ProbeRates(actor.Ref)         {}

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
