// Command flbench regenerates every table and figure from the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	flbench -exp fig6       # diurnal participation & completion rate
//	flbench -exp fig7       # completed / aborted / dropped per round
//	flbench -exp fig8       # round & participation time distributions
//	flbench -exp fig9       # server traffic asymmetry
//	flbench -exp table1     # session shape distribution
//	flbench -exp nextword   # Sec. 8 next-word prediction comparison
//	flbench -exp ksweep     # Sec. 9 devices-per-round sweep
//	flbench -exp overselect # Sec. 9 over-selection vs drop-out
//	flbench -exp secagg     # Sec. 6 Secure Aggregation cost
//	flbench -exp robust     # robust aggregation: attack fraction × policy grid
//	flbench -exp pacing     # Sec. 2.3 pace steering regimes
//	flbench -exp roundtput  # round fan-out/ingest pipeline throughput
//	flbench -exp multipop   # Sec. 4.2 fleet gateway: 3 populations, one Selector layer
//	flbench -exp multitask  # Sec. 7 task lifecycle: interleaved train + eval tasks on one population
//	flbench -exp shardtput  # Sec. 4.1 sharded selector tier: 3 selector procs + 1 coordinator
//	flbench -exp obs        # telemetry instrument overhead (per-event cost)
//	flbench -exp chaos      # deterministic fault-injection grid with invariant-checked recovery
//	flbench -exp all        # everything
//
// -json emits machine-readable results (one object keyed by experiment)
// instead of the formatted tables, for the BENCH_*.json perf trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/flserver"
	"repro/internal/shard"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig6, fig7, fig8, fig9, table1, nextword, ksweep, overselect, secagg, robust, chaos, pacing, roundtput, multipop, multitask, shardtput, obs, all)")
	days := flag.Int("days", 3, "simulated days for the operational figures")
	pop := flag.Int("pop", 20000, "fleet size for the operational figures")
	target := flag.Int("target", 100, "devices per round (K)")
	seed := flag.Uint64("seed", 1, "random seed")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON results instead of formatted tables")
	flag.Parse()

	if err := run(*exp, *seed, *days, *pop, *target, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

type formatter interface{ Format() string }

// roundtputRow is one (transport, K, dim, encoding) cell of the
// round-throughput experiment.
type roundtputRow struct {
	Transport    string
	Devices      int
	Dim          int
	Encoding     string
	MillisRound  float64
	PlanMarshals int64
	Completed    int
	Lost         int
}

// roundtputResult mirrors BenchmarkRoundThroughput for the CLI: one real
// round per cell through the server's EdgeRound fan-out/ingest pipeline.
type roundtputResult struct {
	Rows []roundtputRow
}

// Format implements formatter.
func (r *roundtputResult) Format() string {
	var b strings.Builder
	b.WriteString("Round throughput (Configuration fan-out + wire + edge-accumulated Reporting ingest)\n")
	b.WriteString("  transport     K     dim  encoding   ms/round   plan-marshals  completed\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %5d %7d  %-8s %10.1f %15d %10d\n",
			row.Transport, row.Devices, row.Dim, row.Encoding, row.MillisRound, row.PlanMarshals, row.Completed)
	}
	return b.String()
}

func roundThroughput() (*roundtputResult, error) {
	res := &roundtputResult{}
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		for _, k := range []int{64, 256, 1024} {
			for _, dim := range []int{4096, 65536} {
				for _, enc := range []struct {
					name string
					e    checkpoint.Encoding
				}{{"float64", checkpoint.EncodingFloat64}, {"quant8", checkpoint.EncodingQuant8}} {
					st, err := flserver.RunBenchRound(flserver.BenchRoundConfig{
						Devices: k, Dim: dim, TCP: tcp, Encoding: enc.e,
					})
					if err != nil {
						return nil, fmt.Errorf("roundtput %s K=%d dim=%d enc=%s: %w", name, k, dim, enc.name, err)
					}
					res.Rows = append(res.Rows, roundtputRow{
						Transport:    name,
						Devices:      k,
						Dim:          dim,
						Encoding:     enc.name,
						MillisRound:  float64(st.Elapsed.Microseconds()) / 1000,
						PlanMarshals: st.PlanMarshals,
						Completed:    st.Completed,
						Lost:         st.Lost,
					})
				}
			}
		}
	}
	return res, nil
}

// multipopRow is one transport's run of the multi-population fleet
// experiment.
type multipopRow struct {
	Transport    string
	Populations  int
	Devices      int
	MillisTotal  float64
	RoundsPerPop map[string]int
	Accepted     int64
	Rejected     int64
}

// multipopResult mirrors BenchmarkMultiPopulation for the CLI: one fleet
// gateway drives 3 populations to committed rounds over a shared Selector
// layer and a shared multi-tenant device fleet, per transport.
type multipopResult struct {
	Rows []multipopRow
}

// Format implements formatter.
func (r *multipopResult) Format() string {
	var b strings.Builder
	b.WriteString("Fleet gateway (one Selector layer, N populations, shared device fleet)\n")
	b.WriteString("  transport  pops  devices   ms-total   accepted  rejected  rounds/pop\n")
	for _, row := range r.Rows {
		minRounds := 0
		for _, n := range row.RoundsPerPop {
			if minRounds == 0 || n < minRounds {
				minRounds = n
			}
		}
		fmt.Fprintf(&b, "  %-9s %5d %8d %10.1f %10d %9d %11d\n",
			row.Transport, row.Populations, row.Devices, row.MillisTotal,
			row.Accepted, row.Rejected, minRounds)
	}
	return b.String()
}

func multiPopulation(seed uint64) (*multipopResult, error) {
	res := &multipopResult{}
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		cfg := fleet.BenchConfig{
			Populations: 3, Devices: 9, TargetDevices: 3, Rounds: 2,
			TCP: tcp, Seed: seed,
		}
		st, err := fleet.RunBenchMultiPop(cfg)
		if err != nil {
			return nil, fmt.Errorf("multipop %s: %w", name, err)
		}
		res.Rows = append(res.Rows, multipopRow{
			Transport:    name,
			Populations:  cfg.Populations,
			Devices:      cfg.Devices,
			MillisTotal:  float64(st.Elapsed.Microseconds()) / 1000,
			RoundsPerPop: st.Rounds,
			Accepted:     st.Accepted,
			Rejected:     st.Rejected,
		})
	}
	return res, nil
}

// multitaskRow is one transport's run of the multi-task lifecycle
// experiment.
type multitaskRow struct {
	Transport string
	// RoundsCommitted / RoundsPerSec are keyed by task ID.
	RoundsCommitted map[string]int
	RoundsPerSec    map[string]float64
	MillisTotal     float64
}

// multitaskResult mirrors BenchmarkMultiTask for the CLI: one population
// interleaving a train task with an eval task submitted through the live
// task lifecycle API, per transport.
type multitaskResult struct {
	Rows []multitaskRow
}

// Format implements formatter.
func (r *multitaskResult) Format() string {
	var b strings.Builder
	b.WriteString("Task lifecycle (one population, train + eval tasks interleaved by the TaskSet)\n")
	b.WriteString("  transport  task                 rounds   rounds/sec   ms-total\n")
	for _, row := range r.Rows {
		ids := make([]string, 0, len(row.RoundsCommitted))
		for id := range row.RoundsCommitted {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, "  %-9s %-20s %6d %12.1f %10.1f\n",
				row.Transport, id, row.RoundsCommitted[id], row.RoundsPerSec[id], row.MillisTotal)
		}
	}
	return b.String()
}

func multiTask(seed uint64) (*multitaskResult, error) {
	res := &multitaskResult{}
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		st, err := flserver.RunBenchMultiTask(flserver.BenchMultiTaskConfig{
			Devices: 9, TargetDevices: 3, TrainRounds: 4, EvalEvery: 2,
			TCP: tcp, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("multitask %s: %w", name, err)
		}
		row := multitaskRow{
			Transport:       name,
			RoundsCommitted: make(map[string]int, len(st.PerTask)),
			RoundsPerSec:    st.RoundsPerSec,
			MillisTotal:     float64(st.Elapsed.Microseconds()) / 1000,
		}
		for _, t := range st.PerTask {
			row.RoundsCommitted[t.ID] = t.RoundsCommitted
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// shardtputRow is one (transport, K) cell of the sharded-deployment
// experiment: 3 selector processes, 1 coordinator, sealed stripes upstream.
type shardtputRow struct {
	Transport     string
	Shards        int
	Devices       int
	K             int
	MillisTotal   float64
	Rounds        int
	SealsPerRound float64
	BytesUpRound  float64
	Accepted      int64
}

// shardtputResult mirrors BenchmarkShardedRound for the CLI: the sharded
// selector tier commits rounds while only sealed stripes — one per shard
// per round — cross the selector→coordinator boundary.
type shardtputResult struct {
	Rows []shardtputRow
}

// Format implements formatter.
func (r *shardtputResult) Format() string {
	var b strings.Builder
	b.WriteString("Sharded selector tier (N selector procs, 1 coordinator, sealed stripes upstream)\n")
	b.WriteString("  transport  shards     K  devices   ms-total  rounds  seals/round  bytes-up/round   accepted\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %6d %5d %8d %10.1f %7d %12.1f %15.0f %10d\n",
			row.Transport, row.Shards, row.K, row.Devices, row.MillisTotal,
			row.Rounds, row.SealsPerRound, row.BytesUpRound, row.Accepted)
	}
	return b.String()
}

func shardThroughput(seed uint64) (*shardtputResult, error) {
	res := &shardtputResult{}
	for _, cell := range []struct {
		tcp bool
		k   int
	}{{false, 64}, {false, 512}, {true, 64}} {
		name := "mem"
		if cell.tcp {
			name = "tcp"
		}
		cfg := shard.BenchShardedConfig{
			Shards: 3, TargetDevices: cell.k, Devices: 2 * cell.k, Rounds: 2,
			TCP: cell.tcp, Seed: seed,
		}
		st, err := shard.RunBenchSharded(cfg)
		if err != nil {
			return nil, fmt.Errorf("shardtput %s K=%d: %w", name, cell.k, err)
		}
		res.Rows = append(res.Rows, shardtputRow{
			Transport:     name,
			Shards:        cfg.Shards,
			Devices:       cfg.Devices,
			K:             cell.k,
			MillisTotal:   float64(st.Elapsed.Microseconds()) / 1000,
			Rounds:        st.Rounds,
			SealsPerRound: float64(st.SealsReceived) / float64(st.Rounds),
			BytesUpRound:  float64(st.BytesUpstream) / float64(st.Rounds),
			Accepted:      st.Accepted,
		})
	}
	return res, nil
}

func run(exp string, seed uint64, days, pop, target int, asJSON bool) error {
	collected := make(map[string]interface{})
	runOne := func(name string, f func() (formatter, error)) error {
		res, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if asJSON {
			collected[name] = res
			return nil
		}
		fmt.Println(res.Format())
		return nil
	}
	emit := func() error {
		if !asJSON {
			return nil
		}
		out, err := json.MarshalIndent(map[string]interface{}{
			"seed": seed, "days": days, "pop": pop, "target": target,
			"results": collected,
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	all := map[string]func() (formatter, error){
		"fig6":   func() (formatter, error) { return experiments.Fig6(seed, days, pop, target) },
		"fig7":   func() (formatter, error) { return experiments.Fig7(seed, days, pop, target) },
		"fig8":   func() (formatter, error) { return experiments.Fig8(seed, days, pop, target) },
		"fig9":   func() (formatter, error) { return experiments.Fig9(seed, days, pop, target) },
		"table1": func() (formatter, error) { return experiments.Table1(seed, days, pop, target) },
		"nextword": func() (formatter, error) {
			return experiments.NextWord(experiments.NextWordConfig{Seed: seed})
		},
		"ksweep": func() (formatter, error) {
			return experiments.KSweep([]int{1, 2, 5, 10, 20, 50, 100, 200}, 5, seed)
		},
		"overselect": func() (formatter, error) {
			return experiments.OverSelect(
				[]float64{1.0, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5},
				[]float64{0.06, 0.08, 0.10}, target, 2000, seed)
		},
		"secagg": func() (formatter, error) {
			return experiments.SecAggCost([]int{4, 8, 16, 32, 64}, 256, 256, []float64{0, 0.1, 0.25})
		},
		"robust": func() (formatter, error) {
			return experiments.RobustCost(experiments.RobustCostConfig{Seed: seed})
		},
		"pacing":    func() (formatter, error) { return experiments.Pacing(10000, seed) },
		"adaptive":  func() (formatter, error) { return experiments.Adaptive(seed) },
		"wallclock": func() (formatter, error) { return experiments.WallClock(seed) },
		"roundtput": func() (formatter, error) { return roundThroughput() },
		"multipop":  func() (formatter, error) { return multiPopulation(seed) },
		"multitask": func() (formatter, error) { return multiTask(seed) },
		"shardtput": func() (formatter, error) { return shardThroughput(seed) },
		"obs":       func() (formatter, error) { return experiments.TelemetryOverhead() },
		"chaos":     func() (formatter, error) { return experiments.ChaosGrid(seed) },
	}

	if exp == "all" {
		// Deterministic order matching the paper's presentation.
		for _, name := range []string{"pacing", "secagg", "robust", "chaos", "roundtput", "multipop", "multitask", "shardtput", "obs", "nextword", "wallclock", "fig6", "fig7", "fig8", "fig9", "table1", "ksweep", "overselect", "adaptive"} {
			if err := runOne(name, all[name]); err != nil {
				return err
			}
		}
		return emit()
	}
	f, ok := all[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if err := runOne(exp, f); err != nil {
		return err
	}
	return emit()
}
