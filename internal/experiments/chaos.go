package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
)

// ChaosRow is one scenario of the chaos grid: a fault schedule run against
// the full sharded deployment, with the committed-round count, the fault
// totals, and the chaos.Verify verdict.
type ChaosRow struct {
	Scenario string
	Seed     uint64
	Rounds   int
	// ElapsedMS is the virtual time to the last committed round.
	ElapsedMS int64
	// Faults is the total recorded fault count; FaultCounts breaks it down
	// per kind ("drop=12", sorted).
	Faults      int64
	FaultCounts []string
	// Invariants is "ok" when every Verify probe held, else the failures.
	Invariants    string
	SealsReceived int64
	Accepted      int64
}

// ChaosResult is the grid output for `flbench -exp chaos`.
type ChaosResult struct {
	Shards        int
	TargetDevices int
	Rows          []ChaosRow
}

// Format implements the flbench formatter.
func (r *ChaosResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos grid: %d shards, K=%d, invariant-checked recovery per schedule\n", r.Shards, r.TargetDevices)
	fmt.Fprintf(&b, "%-24s %8s %8s %10s %8s %8s  %s\n", "scenario", "seed", "rounds", "elapsed", "faults", "seals", "invariants")
	for _, row := range r.Rows {
		faults := "-"
		if len(row.FaultCounts) > 0 {
			faults = strings.Join(row.FaultCounts, " ")
		}
		fmt.Fprintf(&b, "%-24s %8d %8d %9dms %8d %8d  %s\n",
			row.Scenario, row.Seed, row.Rounds, row.ElapsedMS, row.Faults, row.SealsReceived, row.Invariants)
		if faults != "-" {
			fmt.Fprintf(&b, "%-24s %s\n", "", faults)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// ChaosGrid runs the deterministic chaos scenarios against the sharded
// deployment: a fault-free baseline (which doubles as the aggregate-sum
// reference), link-level noise, and the full partition + connection-reset
// schedule from the acceptance scenario. Every row's fault schedule is
// reproducible from its seed.
func ChaosGrid(seed uint64) (*ChaosResult, error) {
	base := chaos.ScenarioConfig{
		Seed:          seed,
		Shards:        3,
		TargetDevices: 8,
		Rounds:        5,
	}
	out := &ChaosResult{Shards: base.Shards, TargetDevices: base.TargetDevices}

	scenarios := []struct {
		name string
		spec chaos.Spec
	}{
		{name: "baseline", spec: chaos.Spec{}},
		{name: "drop5+jitter200ms", spec: chaos.Spec{
			Rules: []chaos.Rule{{Role: chaos.RoleShard, Drop: 0.05, Jitter: 200 * time.Millisecond}},
		}},
		{name: "partition+reset", spec: chaos.Spec{
			Rules: []chaos.Rule{{Role: chaos.RoleShard, Drop: 0.05, Jitter: 200 * time.Millisecond}},
			// Long enough for the links' heartbeat budget to declare it down.
			Partitions: []chaos.Window{{Role: "shard:1", Round: 3, Dur: 10 * time.Second}},
			Resets:     []chaos.Reset{{Role: "shard:2", Round: 4}},
		}},
	}

	var reference = base.Reference
	for _, sc := range scenarios {
		cfg := base
		cfg.Spec = sc.spec
		cfg.Reference = reference
		res, err := chaos.RunScenario(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos scenario %q: %w", sc.name, err)
		}
		invariants := "ok"
		if rerr := res.Report.Err(); rerr != nil {
			invariants = rerr.Error()
		}
		out.Rows = append(out.Rows, ChaosRow{
			Scenario:      sc.name,
			Seed:          cfg.Seed,
			Rounds:        res.Rounds,
			ElapsedMS:     res.Elapsed.Milliseconds(),
			Faults:        res.FaultTotal,
			FaultCounts:   res.FaultCounts,
			Invariants:    invariants,
			SealsReceived: res.SealsReceived,
			Accepted:      res.Accepted,
		})
		if sc.name == "baseline" {
			// The fault-free lineage is the sum-correctness ground truth for
			// every subsequent scenario.
			reference = res.Lineage
		}
	}
	return out, nil
}
