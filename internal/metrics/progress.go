package metrics

import (
	"fmt"
	"strings"
)

// TaskProgress is one task's lifecycle line in the operator progress view.
// It is a plain value struct so cmd binaries can fill it from either the
// fleet's tasks.Stats or the shard coordinator's view without metrics
// importing those packages.
type TaskProgress struct {
	ID, Type, State               string
	RoundsCommitted, RoundsFailed int
	Devices                       int
	Note                          string
}

// PopulationProgress is one population's progress snapshot, the unit both
// flserver modes and the /dashboard route render. Exactly one of the two
// tails is shown: Sharded selects the coordinator-mode tail (shard links,
// seals, upstream bytes); otherwise the in-process selector tail
// (accepted/rejected/held) is used.
type PopulationProgress struct {
	Name              string
	Round             int64
	Completed, Failed int

	// Selector tail (single-process fleet mode).
	Accepted, Rejected, Held int64

	// Coordinator tail (sharded mode).
	Sharded       bool
	Shards        int
	Seals         int64
	BytesUpstream int64

	Tasks []TaskProgress
}

// String renders the population as the shared multi-line progress block:
// one summary line plus one indented line per task.
func (p PopulationProgress) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: round %d, %d completed, %d failed; ",
		p.Name, p.Round, p.Completed, p.Failed)
	if p.Sharded {
		fmt.Fprintf(&b, "%d shard(s) connected, %d seals / %d bytes upstream",
			p.Shards, p.Seals, p.BytesUpstream)
	} else {
		fmt.Fprintf(&b, "selector accepted=%d rejected=%d held=%d",
			p.Accepted, p.Rejected, p.Held)
	}
	for _, t := range p.Tasks {
		note := ""
		if t.Note != "" {
			note = " — " + t.Note
		}
		fmt.Fprintf(&b, "\n  task %s [%s %s]: %d committed, %d failed, %d devices%s",
			t.ID, t.Type, t.State, t.RoundsCommitted, t.RoundsFailed, t.Devices, note)
	}
	return b.String()
}

// FormatProgress renders a set of populations, one block per line group.
func FormatProgress(pops []PopulationProgress) string {
	lines := make([]string, len(pops))
	for i, p := range pops {
		lines[i] = p.String()
	}
	return strings.Join(lines, "\n")
}
