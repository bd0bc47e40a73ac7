package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// TestScenarioEndToEnd is the acceptance scenario: a 1 coordinator + 3
// shard fleet under 5% drop and 200ms jitter on every shard link, a 10s
// partition of shard 1 opening at round 3 — long enough for the default
// heartbeat budget to declare the link down, and the link must come back —
// and a scheduled connection reset of shard 2 at round 4. It must still
// commit 5 rounds with every invariant green, and the fault schedule must be
// reproducible from the seed alone. Released buffers are poisoned, and once
// each rig has closed every loan and lease lent on its clock is back (the
// teardown probe).
func TestScenarioEndToEnd(t *testing.T) {
	transport.PoisonReleasedForTest()
	base := ScenarioConfig{
		Seed:          42,
		Shards:        3,
		TargetDevices: 8,
		Rounds:        5,
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
		Partitions: []Window{{Role: "shard:1", Round: 3, Dur: 10 * time.Second}},
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
		t.Fatalf("invariants violated:\n%s\n%s", res.Report, res.Plan)
	}
	if res.FaultTotal == 0 {
		t.Fatal("chaos run recorded no faults — the schedule never engaged")
	}
	if res.LinkDowns[1] == 0 || res.LinkUps[1] <= res.LinkDowns[1] {
		t.Fatalf("shard 1's link went down %d times and up %d: want down, then back up", res.LinkDowns[1], res.LinkUps[1])
	}

	// Reproducibility: the same seed and spec yield the identical plan and,
	// per link, the identical fault-decision stream — the property that lets
	// a failing scenario be replayed from the seed printed in its log.
	injA, injB := New(cfg.Seed, cfg.Spec, nil), New(cfg.Seed, cfg.Spec, nil)
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

// deviceFaults is the device-link schedule the in-process scenarios run.
const deviceFaults = "device:drop=0.08,jitter=20ms"

// references caches the fault-free lineage of each in-process base config.
var references sync.Map

// runDeviceFaultScenario runs base fault-free for a reference lineage, then
// again under spec on the device links. Whether or not its rounds commit,
// the rig must never deadlock and every invariant must hold — SumProbe
// included, so no commit may deviate from the fault-free lineage.
func runDeviceFaultScenario(t *testing.T, base ScenarioConfig, spec Spec) ScenarioResult {
	t.Helper()
	key := fmt.Sprintf("%+v", base)
	ref, ok := references.Load(key)
	if !ok {
		res, err := RunScenario(base)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if !res.Report.OK() {
			t.Fatalf("reference run invariants:\n%s", res.Report)
		}
		ref, _ = references.LoadOrStore(key, res.Lineage)
	}
	cfg := base
	cfg.Spec = spec
	cfg.Reference = ref.([]*checkpoint.Checkpoint)
	res, err := RunScenario(cfg)
	if err != nil && !errors.Is(err, simclock.ErrHorizon) {
		t.Fatalf("chaos run: %v\nfaults: %v", err, res.FaultCounts)
	}
	if !res.Report.OK() || len(res.Report.Passed) == 0 {
		t.Fatalf("invariants violated or never probed:\n%s\n%s", res.Report, res.Plan)
	}
	return res
}

// FuzzScenario runs the in-process scenario (zero shards: the one engine
// over its local edge, device links the only links) under a fuzzed seed and
// fault schedule, against its own fault-free reference. The corpus is seeds
// 1–32 of the device-link schedule, each of which must commit every round;
// a failure is shrunk to a minimal (seed, spec) under testdata/fuzz/.
func FuzzScenario(f *testing.F) {
	for seed := uint64(1); seed <= 32; seed++ {
		f.Add(seed, deviceFaults)
	}
	transport.PoisonReleasedForTest()
	f.Fuzz(func(t *testing.T, seed uint64, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return
		}
		res := runDeviceFaultScenario(t, ScenarioConfig{
			Seed: seed, Shards: 0, TargetDevices: 8, Rounds: 4,
		}, spec)
		if text == deviceFaults && (res.Rounds < 4 || res.FaultTotal == 0) {
			t.Fatalf("seed %d: %d/4 rounds under %d faults", seed, res.Rounds, res.FaultTotal)
		}
	})
}

// TestScenarioSecureRoundsUnderDeviceDrop: Secure Aggregation in groups of 4
// while device links drop frames. A device whose report vanishes stays in
// its group as a protocol dropout; the group either recovers the survivors'
// exact sum through t-of-n reconstruction or aborts — with identical
// devices any wrong sum (an unremoved mask, a miscounted weight) would
// break the lineage match SumProbe checks.
func TestScenarioSecureRoundsUnderDeviceDrop(t *testing.T) {
	spec, err := ParseSpec(deviceFaults)
	if err != nil {
		t.Fatal(err)
	}
	res := runDeviceFaultScenario(t, ScenarioConfig{
		Seed: 11, Shards: 0, TargetDevices: 8, Rounds: 6, SecAggGroup: 4,
	}, spec)
	if res.Rounds < 6 || res.FaultTotal == 0 {
		t.Fatalf("%d/6 rounds under %d faults", res.Rounds, res.FaultTotal)
	}
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

// BenchmarkScenarioSwarm is a fault-free in-process scenario per swarm size
// (3K devices): the cost per accepted session must not grow with the number
// of devices resting on the rig.
func BenchmarkScenarioSwarm(b *testing.B) {
	for _, k := range []int{50, 400} {
		b.Run(fmt.Sprintf("devices-%d", 3*k), func(b *testing.B) {
			var accepted int64
			for i := 0; i < b.N; i++ {
				res, err := RunScenario(ScenarioConfig{Seed: 1, TargetDevices: k, Rounds: 5})
				if err != nil {
					b.Fatal(err)
				}
				accepted += res.Accepted
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(accepted), "µs/session")
		})
	}
}
