package analytics

import (
	"fmt"
	"sort"
	"strings"
)

// Dashboard assembles the Sec. 5 operator view: counters, session-shape
// distribution and traffic totals, rendered as text ("aggregated and
// presented in dashboards to be analyzed").
type Dashboard struct {
	Title    string
	Counters *Counters
	Shapes   *ShapeCounter
	Traffic  *Traffic
}

// Render returns the dashboard as a text block.
func (d *Dashboard) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", d.Title)

	if d.Counters != nil {
		snap := d.Counters.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(&b, "counters:\n")
			for _, name := range names {
				fmt.Fprintf(&b, "  %-32s %12d\n", name, snap[name])
			}
		}
	}

	if d.Traffic != nil {
		down, up := d.Traffic.Totals()
		fmt.Fprintf(&b, "traffic: %0.1f MB down / %0.1f MB up\n",
			float64(down)/1e6, float64(up)/1e6)
	}

	if d.Shapes != nil && d.Shapes.Total() > 0 {
		fmt.Fprintf(&b, "sessions (%d total):\n", d.Shapes.Total())
		for _, row := range d.Shapes.Distribution() {
			bar := strings.Repeat("#", int(row.Percent/2))
			fmt.Fprintf(&b, "  %-10s %6.1f%% %s\n", row.Shape, row.Percent, bar)
		}
	}
	return b.String()
}
