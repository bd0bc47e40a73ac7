package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/transport"
)

// acceptancePeer tolerates the acceptance spec's 200ms jitter on the
// heartbeat path (tolerance = interval × miss = 500ms) while still noticing
// a 2s partition well inside the window.
func acceptancePeer() remote.Options {
	return remote.Options{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMiss:     5,
		BackoffMin:        5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
	}
}

// TestScenarioEndToEnd is the acceptance scenario from the issue: a 1
// coordinator + 3 shard fleet under 5% drop and 200ms jitter on every shard
// link, a 2s partition of shard 1 opening at round 3, and a scheduled
// connection reset of shard 2 at round 4 — must still commit 5 rounds with
// every invariant green, and the fault schedule must be reproducible from
// the seed alone.
func TestScenarioEndToEnd(t *testing.T) {
	base := ScenarioConfig{
		Seed:             42,
		Shards:           3,
		TargetDevices:    8,
		Rounds:           5,
		IdenticalDevices: true,
		Peer:             acceptancePeer(),
	}

	// Fault-free reference run: same swarm, empty schedule. Its lineage is
	// the ground truth the chaos run's commits must match.
	ref, err := RunScenario(base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !ref.Report.OK() {
		t.Fatalf("reference run invariants:\n%s", ref.Report)
	}
	if ref.FaultTotal != 0 {
		t.Fatalf("reference run recorded %d faults with an empty spec", ref.FaultTotal)
	}

	cfg := base
	cfg.Spec = Spec{
		Rules:      []Rule{{Role: RoleShard, Drop: 0.05, Jitter: 200 * time.Millisecond}},
		Partitions: []Window{{Role: "shard:1", Round: 3, Dur: 2 * time.Second}},
		Resets:     []Reset{{Role: "shard:2", Round: 4}},
	}
	cfg.Reference = ref.Lineage
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v\nfaults: %v", err, res.FaultCounts)
	}
	t.Logf("chaos run: %d rounds in %v, faults %v\n%s", res.Rounds, res.Elapsed, res.FaultCounts, res.Plan)
	if res.Rounds < cfg.Rounds {
		t.Fatalf("committed %d/%d rounds", res.Rounds, cfg.Rounds)
	}
	if !res.Report.OK() {
		t.Fatalf("invariants violated (seed=%d):\n%s\nplan:\n%s", res.Seed, res.Report, res.Plan)
	}
	if res.FaultTotal == 0 {
		t.Fatal("chaos run recorded no faults — the schedule never engaged")
	}

	// Reproducibility: the same seed and spec yield the identical plan and,
	// per link, the identical fault-decision stream — the property that lets
	// a failing scenario be replayed from the seed printed in its log.
	injA, injB := New(cfg.Seed, cfg.Spec), New(cfg.Seed, cfg.Spec)
	if injA.Plan() != injB.Plan() {
		t.Fatalf("plans differ for one seed:\n%s\n---\n%s", injA.Plan(), injB.Plan())
	}
	for i := 0; i < cfg.Shards; i++ {
		role := Role(fmt.Sprintf("shard:%d", i))
		a := decisionStream(t, injA, role, 256)
		b := decisionStream(t, injB, role, 256)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("link %s: decision streams diverge for seed %d", role, cfg.Seed)
		}
	}
}

// runDeviceFaultScenario runs base fault-free for a reference lineage, then
// again under 8% drop and 20ms jitter on every device link, and requires
// every round to commit with every invariant green — SumProbe included, so
// no commit may deviate from the fault-free lineage.
func runDeviceFaultScenario(t *testing.T, base ScenarioConfig) {
	t.Helper()
	ref, err := RunScenario(base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !ref.Report.OK() {
		t.Fatalf("reference run invariants:\n%s", ref.Report)
	}
	cfg := base
	cfg.Spec = Spec{Rules: []Rule{{Role: RoleDevice, Drop: 0.08, Jitter: 20 * time.Millisecond}}}
	cfg.Reference = ref.Lineage
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v\nfaults: %v", err, res.FaultCounts)
	}
	t.Logf("chaos run: %d rounds in %v, faults %v", res.Rounds, res.Elapsed, res.FaultCounts)
	if !res.Report.OK() {
		t.Fatalf("invariants violated (seed=%d):\n%s\nplan:\n%s", res.Seed, res.Report, res.Plan)
	}
	if res.FaultTotal == 0 {
		t.Fatal("chaos run recorded no faults — the schedule never engaged")
	}
}

// TestScenarioInProcess runs the in-process shape (zero shards: the one
// engine over its local edge, device links the only links) through the
// same harness and invariant probes as the sharded deployment.
func TestScenarioInProcess(t *testing.T) {
	runDeviceFaultScenario(t, ScenarioConfig{
		Seed: 7, Shards: 0, TargetDevices: 8, Rounds: 4,
		IdenticalDevices: true, WrapDevices: true, ReportTimeout: time.Second,
	})
}

// TestScenarioSecureRoundsUnderDeviceDrop: Secure Aggregation in groups of 4
// while device links drop frames. A device whose report vanishes stays in
// its group as a protocol dropout; the group either recovers the survivors'
// exact sum through t-of-n reconstruction or aborts — with identical
// devices any wrong sum (an unremoved mask, a miscounted weight) would
// break the lineage match SumProbe checks.
func TestScenarioSecureRoundsUnderDeviceDrop(t *testing.T) {
	runDeviceFaultScenario(t, ScenarioConfig{
		Seed: 11, Shards: 0, TargetDevices: 8, Rounds: 6, SecAggGroup: 4,
		IdenticalDevices: true, WrapDevices: true, ReportTimeout: time.Second,
	})
}

// decisionStream draws the first n fault decisions of role's next link.
func decisionStream(t *testing.T, in *Injector, role Role, n int) []decision {
	t.Helper()
	c1, c2 := transport.Pipe()
	fc, ok := in.WrapConn(role, c1).(*faultConn)
	if !ok {
		t.Fatalf("WrapConn(%s) did not wrap", role)
	}
	t.Cleanup(func() { fc.Close(); c2.Close() })
	out := make([]decision, n)
	for i := range out {
		_, out[i] = fc.draw()
	}
	return out
}
