// Package experiments reproduces every table and figure in the paper's
// evaluation. Each experiment returns a result struct with a Format method
// printing rows in the spirit of the original figure; cmd/flbench calls
// these entry points. Absolute values differ from the paper (a simulated
// fleet vs. Google's production fleet); the shapes — oscillations, ratios,
// who wins — are the reproduction target.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// HourPoint is one hour-of-day average for the diurnal figures.
type HourPoint struct {
	Hour                   int
	Participating, Waiting float64
	Completions, Failures  float64
}

// Fig6Result reproduces Fig. 5/6: devices in "participating" and "waiting"
// states across the day, and the round completion rate oscillating in sync.
type Fig6Result struct {
	Hours []HourPoint
	// SwingRatio is peak/trough of connected devices (paper: ≈ 4×).
	SwingRatio float64
	// Correlation of completion rate with availability.
	Correlation float64
	// Failed counts the rounds the run failed.
	Failed int
}

// Fig6 reads a fleet run's samples by hour of day: the devices the
// Selectors park (waiting) and the devices in a configured session
// (participating), averaged over the hour, and the rounds committed and
// failed per hour.
func Fig6(run *sim.FleetRun) *Fig6Result {
	out := &Fig6Result{}
	var sums [24]HourPoint
	var counts [24]int
	var availability [24]float64
	for _, s := range run.Samples {
		h := s.T.Add(-sim.SampleEvery).Hour() // the hour the sample closes
		availability[h] += s.Available
		sums[h].Participating += float64(s.Participating)
		sums[h].Waiting += float64(s.Waiting)
		counts[h]++
	}
	for _, r := range run.Rounds {
		if r.Committed {
			sums[r.End.Hour()].Completions++
		} else {
			sums[r.End.Hour()].Failures++
			out.Failed++
		}
	}
	var avail, compl []float64
	minC, maxC := math.Inf(1), 0.0
	for h := 0; h < 24; h++ {
		n, days := float64(counts[h]), float64(run.Days)
		hp := HourPoint{
			Hour:          h,
			Participating: sums[h].Participating / n,
			Waiting:       sums[h].Waiting / n,
			Completions:   sums[h].Completions / days,
			Failures:      sums[h].Failures / days,
		}
		out.Hours = append(out.Hours, hp)
		avail = append(avail, availability[h]/n)
		compl = append(compl, hp.Completions)
		conn := hp.Participating + hp.Waiting
		minC, maxC = min(minC, conn), max(maxC, conn)
	}
	// A trough below one connected device is below the figure's resolution.
	out.SwingRatio = maxC / max(minC, 1)
	out.Correlation = pearson(avail, compl)
	return out
}

// Format renders the figure as an hourly table with spark bars.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5/6 — Diurnal device participation and round completion rate\n")
	fmt.Fprintf(&b, "%-5s %14s %10s %12s %9s  connected\n", "hour", "participating", "waiting", "rounds/hour", "failures")
	maxConn := 0.0
	for _, h := range r.Hours {
		maxConn = max(maxConn, h.Participating+h.Waiting)
	}
	for _, h := range r.Hours {
		conn := h.Participating + h.Waiting
		bar := ""
		if maxConn > 0 {
			bar = strings.Repeat("#", int(30*conn/maxConn))
		}
		fmt.Fprintf(&b, "%02d:00 %14.1f %10.1f %12.1f %9.1f  %s\n",
			h.Hour, h.Participating, h.Waiting, h.Completions, h.Failures, bar)
	}
	fmt.Fprintf(&b, "peak/trough swing: %.1fx (paper: ~4x)\n", r.SwingRatio)
	fmt.Fprintf(&b, "corr(availability, completion rate): %.2f (paper: oscillate in sync)\n", r.Correlation)
	return b.String()
}

// Fig7Result reproduces Fig. 7: average devices completed / aborted /
// dropped per round, by hour of day.
type Fig7Result struct {
	Hours []Fig7Hour
	// DayDropRate and NightDropRate bound the paper's 6–10% band.
	DayDropRate, NightDropRate float64
	// FullRounds is the fraction of committed rounds that reached the goal
	// count K.
	FullRounds float64
}

// Fig7Hour is one hour-of-day row.
type Fig7Hour struct {
	Hour                        int
	Completed, Aborted, Dropped float64
}

// Fig7 reads every committed round's trace: reports, devices aborted at the
// seal (over-selected), devices lost (dropped out), by the hour it opened.
func Fig7(run *sim.FleetRun) *Fig7Result {
	var comp, abrt, drop, cnt [24]float64
	var dayDrop, daySel, nightDrop, nightSel, full, committed float64
	for _, r := range run.Rounds {
		if !r.Committed {
			continue
		}
		committed++
		if r.Reports >= run.Plan.Server.TargetDevices {
			full++
		}
		h := r.Start.Hour()
		comp[h] += float64(r.Reports)
		abrt[h] += float64(r.Aborted)
		drop[h] += float64(r.Lost)
		cnt[h]++
		selected := float64(r.Reports + r.Aborted + r.Lost)
		switch {
		case h >= 11 && h < 17:
			dayDrop += float64(r.Lost)
			daySel += selected
		case h < 5:
			nightDrop += float64(r.Lost)
			nightSel += selected
		}
	}
	out := &Fig7Result{}
	for h := 0; h < 24; h++ {
		if cnt[h] == 0 {
			continue
		}
		out.Hours = append(out.Hours, Fig7Hour{
			Hour: h, Completed: comp[h] / cnt[h], Aborted: abrt[h] / cnt[h], Dropped: drop[h] / cnt[h],
		})
	}
	if daySel > 0 {
		out.DayDropRate = dayDrop / daySel
	}
	if nightSel > 0 {
		out.NightDropRate = nightDrop / nightSel
	}
	if committed > 0 {
		out.FullRounds = full / committed
	}
	return out
}

// Format renders the Fig. 7 rows.
func (r *Fig7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — Average devices completed, aborted, dropped per round\n")
	fmt.Fprintf(&b, "%-5s %10s %9s %9s\n", "hour", "completed", "aborted", "dropped")
	for _, h := range r.Hours {
		fmt.Fprintf(&b, "%02d:00 %10.1f %9.1f %9.1f\n", h.Hour, h.Completed, h.Aborted, h.Dropped)
	}
	fmt.Fprintf(&b, "drop-out rate: night %.1f%%, day %.1f%% (paper: 6%%–10%%, higher by day)\n",
		100*r.NightDropRate, 100*r.DayDropRate)
	fmt.Fprintf(&b, "committed rounds reaching the goal count: %.0f%% (over-selection absorbs the drop-outs)\n", 100*r.FullRounds)
	return b.String()
}

// Fig8Result reproduces Fig. 8: distributions of round run time and device
// participation time, with the server-imposed straggler cap visible.
type Fig8Result struct {
	RunTimeP50, RunTimeP90, RunTimeP99                   float64
	ParticipationP50, ParticipationP90, ParticipationMax float64
	CapSeconds                                           float64
}

// Fig8 reads round times — the commit instant minus the trace's Start —
// and device session spans, from configuration to the session's end, both
// on the run's clock.
func Fig8(run *sim.FleetRun) *Fig8Result {
	rounds := metrics.NewSummary()
	for _, r := range run.Rounds {
		if r.Committed {
			rounds.ObserveDuration(r.End.Sub(r.Start))
		}
	}
	rt, spans := rounds.Snapshot(), run.Spans.Snapshot()
	return &Fig8Result{
		RunTimeP50:       rt.P50,
		RunTimeP90:       rt.P90,
		RunTimeP99:       rt.P99,
		ParticipationP50: spans.P50,
		ParticipationP90: spans.P90,
		ParticipationMax: spans.Max,
		CapSeconds:       run.Plan.Server.ParticipationCap.Seconds(),
	}
}

// Format renders the Fig. 8 distribution summary.
func (r *Fig8Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — Round execution and device participation time (seconds)\n")
	fmt.Fprintf(&b, "%-22s %8s %8s %8s\n", "", "P50", "P90", "P99/max")
	fmt.Fprintf(&b, "%-22s %8.0f %8.0f %8.0f\n", "round run time", r.RunTimeP50, r.RunTimeP90, r.RunTimeP99)
	fmt.Fprintf(&b, "%-22s %8.0f %8.0f %8.0f\n", "device participation", r.ParticipationP50, r.ParticipationP90, r.ParticipationMax)
	fmt.Fprintf(&b, "participation capped at %.0fs by the server (paper: participation time is capped)\n", r.CapSeconds)
	return b.String()
}

// Fig9Result reproduces Fig. 9: server traffic asymmetry.
type Fig9Result struct {
	DownloadBytes, UploadBytes int64
	Ratio                      float64
	Days                       int
}

// Fig9 reads the plan, checkpoint and update bytes the run's device links
// carried.
func Fig9(run *sim.FleetRun) *Fig9Result {
	down := run.Metrics.Counter(metrics.NetTxBytes).Value()
	up := run.Metrics.Counter(metrics.NetRxBytes).Value()
	out := &Fig9Result{DownloadBytes: down, UploadBytes: up, Days: run.Days}
	if up > 0 {
		out.Ratio = float64(down) / float64(up)
	}
	return out
}

// Format renders the Fig. 9 totals.
func (r *Fig9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — Server network traffic over %d days\n", r.Days)
	fmt.Fprintf(&b, "download (server→device): %8.3f MB   (plan + global model)\n", float64(r.DownloadBytes)/1e6)
	fmt.Fprintf(&b, "upload   (device→server): %8.3f MB   (updates)\n", float64(r.UploadBytes)/1e6)
	fmt.Fprintf(&b, "download/upload ratio: %.1fx (paper: download dominates)\n", r.Ratio)
	return b.String()
}

// Table1Result reproduces Table 1: the distribution of on-device training
// session shapes.
type Table1Result struct {
	Rows  []Table1Row
	Total int
}

// Table1Row is one session-shape row.
type Table1Row struct {
	Shape   string
	Count   int
	Percent float64
}

// Table1 counts the shapes of the run's configured sessions.
func Table1(run *sim.FleetRun) *Table1Result {
	out := &Table1Result{}
	for shape, n := range run.Metrics.CounterFamily(metrics.SessionShapes, "shape") {
		out.Rows = append(out.Rows, Table1Row{Shape: shape, Count: int(n)})
		out.Total += int(n)
	}
	for i := range out.Rows {
		out.Rows[i].Percent = 100 * float64(out.Rows[i].Count) / float64(out.Total)
	}
	// Most common first, ties by shape.
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].Count != out.Rows[j].Count {
			return out.Rows[i].Count > out.Rows[j].Count
		}
		return out.Rows[i].Shape < out.Rows[j].Shape
	})
	return out
}

// Format renders the table with the paper's legend.
func (r *Table1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — Distribution of on-device training round sessions\n")
	fmt.Fprintf(&b, "%-12s %10s %8s\n", "shape", "count", "percent")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10d %7.0f%%\n", row.Shape, row.Count, row.Percent)
	}
	fmt.Fprintf(&b, "(paper: -v[]+^ 75%%, -v[]+# 22%%, -v[! 2%%; the runtime checks eligibility between plan ops, so an interrupted session reads -v!)\n")
	fmt.Fprintf(&b, "legend: - checkin, v plan, [ train start, ] train done, + upload, ^ done, # rejected, ! interrupted\n")
	return b.String()
}

func pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	num := sab - sa*sb/n
	den := (saa - sa*sa/n) * (sbb - sb*sb/n)
	if den <= 0 {
		return 0
	}
	return num / math.Sqrt(den)
}
