package main

import (
	"sort"
	"strings"
	"testing"
)

// TestAllOrderIsTheTable: `-exp all` must run exactly the experiments the
// table dispatches — no key missing from the order, none listed twice, none
// listed that the table lacks.
func TestAllOrderIsTheTable(t *testing.T) {
	ordered := append([]string(nil), allOrder...)
	sort.Strings(ordered)
	if got := strings.Join(ordered, ", "); got != experimentNames() {
		t.Fatalf("-exp all runs {%s}, the table holds {%s}", got, experimentNames())
	}
}

// TestUnknownExperimentListsTheTable covers the retired perf experiments:
// asking for one answers with the survivors.
func TestUnknownExperimentListsTheTable(t *testing.T) {
	for _, exp := range []string{"roundtput", "multipop", "multitask", "shardtput", "obs", ""} {
		err := run(exp, params{}, false)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), experimentNames()) {
			t.Fatalf("-exp %q: %v", exp, err)
		}
	}
}
