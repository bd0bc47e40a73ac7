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

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+experimentNames()+", or all")
	days := flag.Int("days", 3, "simulated days for the operational figures")
	pop := flag.Int("pop", 20000, "fleet size for the operational figures")
	target := flag.Int("target", 100, "devices per round (K)")
	seed := flag.Uint64("seed", 1, "random seed")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON results instead of formatted tables")
	flag.Parse()

	if err := run(*exp, params{seed: *seed, days: *days, pop: *pop, target: *target}, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

type formatter interface{ Format() string }

// params are the flags an experiment may read.
type params struct {
	seed              uint64
	days, pop, target int
}

// experimentTable is the one list of experiments: the -exp help, the
// unknown-experiment error and the dispatch all read it.
var experimentTable = map[string]func(p params) (formatter, error){
	"fig6":   func(p params) (formatter, error) { return experiments.Fig6(p.seed, p.days, p.pop, p.target) },
	"fig7":   func(p params) (formatter, error) { return experiments.Fig7(p.seed, p.days, p.pop, p.target) },
	"fig8":   func(p params) (formatter, error) { return experiments.Fig8(p.seed, p.days, p.pop, p.target) },
	"fig9":   func(p params) (formatter, error) { return experiments.Fig9(p.seed, p.days, p.pop, p.target) },
	"table1": func(p params) (formatter, error) { return experiments.Table1(p.seed, p.days, p.pop, p.target) },
	"nextword": func(p params) (formatter, error) {
		return experiments.NextWord(experiments.NextWordConfig{Seed: p.seed})
	},
	"ksweep": func(p params) (formatter, error) {
		return experiments.KSweep([]int{1, 2, 5, 10, 20, 50, 100, 200}, 5, p.seed)
	},
	"overselect": func(p params) (formatter, error) {
		return experiments.OverSelect(
			[]float64{1.0, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5},
			[]float64{0.06, 0.08, 0.10}, p.target, 2000, p.seed)
	},
	"secagg": func(params) (formatter, error) {
		return experiments.SecAggCost([]int{4, 8, 16, 32, 64}, 256, 256, []float64{0, 0.1, 0.25})
	},
	"robust": func(p params) (formatter, error) {
		return experiments.RobustCost(experiments.RobustCostConfig{Seed: p.seed})
	},
	"pacing":    func(p params) (formatter, error) { return experiments.Pacing(10000, p.seed) },
	"adaptive":  func(p params) (formatter, error) { return experiments.Adaptive(p.seed) },
	"wallclock": func(p params) (formatter, error) { return experiments.WallClock(p.seed) },
	"chaos":     func(p params) (formatter, error) { return experiments.ChaosGrid(p.seed) },
}

// allOrder is the order `-exp all` runs the table in, matching the paper's
// presentation.
var allOrder = []string{"pacing", "secagg", "robust", "chaos", "nextword", "wallclock", "fig6", "fig7", "fig8", "fig9", "table1", "ksweep", "overselect", "adaptive"}

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
