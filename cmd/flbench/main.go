// Command flbench regenerates the paper's figures and tables and the
// DESIGN.md §2b/§3b grids (see DESIGN.md §4 for the experiment index):
//
//	flbench -exp fig6    # one experiment; an unknown name lists them all
//	flbench -exp all     # every experiment, in the paper's order
//
// Round performance is not measured here: `bash benchmark/run.sh` is the
// one instrument for that (benchmark/README.md).
//
// -json emits machine-readable results (one object keyed by experiment)
// instead of the formatted tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+experimentNames()+", or all")
	days := flag.Int("days", 3, "simulated days of the fleet run behind the operational figures")
	pop := flag.Int("pop", 20000, "fleet size of that run")
	target := flag.Int("target", 100, "devices per round (K)")
	seed := flag.Uint64("seed", 1, "random seed")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON results instead of formatted tables")
	flag.Parse()

	p := params{seed: *seed, days: *days, pop: *pop, target: *target}
	// One fleet run feeds every operational figure: `-exp all` simulates once.
	p.fleet = sync.OnceValues(func() (*sim.FleetRun, error) {
		return sim.RunFleet(sim.FleetConfig{Seed: p.seed, Days: p.days, Devices: p.pop, Target: p.target})
	})
	if err := run(*exp, p, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

type formatter interface{ Format() string }

// params are the flags an experiment may read.
type params struct {
	seed              uint64
	days, pop, target int
	// fleet is the fleet run the operational figures read.
	fleet func() (*sim.FleetRun, error)
}

// figure adapts a figure of the fleet run to the experiment table.
func figure[R formatter](fig func(*sim.FleetRun) R) func(params) (formatter, error) {
	return func(p params) (formatter, error) {
		run, err := p.fleet()
		if err != nil {
			return nil, err
		}
		return fig(run), nil
	}
}

// experimentTable is the one list of experiments: the -exp help, the
// unknown-experiment error and the dispatch all read it.
var experimentTable = map[string]func(p params) (formatter, error){
	"fig6":   figure(experiments.Fig6),
	"fig7":   figure(experiments.Fig7),
	"fig8":   figure(experiments.Fig8),
	"fig9":   figure(experiments.Fig9),
	"table1": figure(experiments.Table1),
	"nextword": func(p params) (formatter, error) {
		return experiments.NextWord(experiments.NextWordConfig{Seed: p.seed})
	},
	"ksweep": func(p params) (formatter, error) {
		return experiments.KSweep([]int{1, 2, 5, 10, 20, 50, 100, 200}, 5, p.seed)
	},
	"secagg": func(params) (formatter, error) {
		return experiments.SecAggCost([]int{4, 8, 16, 32, 64}, 256, 256, []float64{0, 0.1, 0.25})
	},
	"robust": func(p params) (formatter, error) {
		return experiments.RobustCost(experiments.RobustCostConfig{Seed: p.seed})
	},
	"pacing": func(p params) (formatter, error) { return experiments.Pacing(10000, p.seed) },
	"wallclock": func(p params) (formatter, error) {
		run, err := p.fleet()
		if err != nil {
			return nil, err
		}
		return experiments.WallClock(run, p.seed)
	},
	"chaos": func(p params) (formatter, error) { return experiments.ChaosGrid(p.seed) },
}

// allOrder is the order `-exp all` runs the table in, matching the paper's
// presentation.
var allOrder = []string{"pacing", "secagg", "robust", "chaos", "nextword", "wallclock", "fig6", "fig7", "fig8", "fig9", "table1", "ksweep"}

// experimentNames lists the table's keys, sorted.
func experimentNames() string {
	names := make([]string, 0, len(experimentTable))
	for name := range experimentTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func run(exp string, p params, asJSON bool) error {
	collected := make(map[string]interface{})
	runOne := func(name string) error {
		res, err := experimentTable[name](p)
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
			"seed": p.seed, "days": p.days, "pop": p.pop, "target": p.target,
			"results": collected,
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	names := []string{exp}
	if exp == "all" {
		names = allOrder
	} else if _, ok := experimentTable[exp]; !ok {
		return fmt.Errorf("unknown experiment %q (have %s, or all)", exp, experimentNames())
	}
	for _, name := range names {
		if err := runOne(name); err != nil {
			return err
		}
	}
	return emit()
}
