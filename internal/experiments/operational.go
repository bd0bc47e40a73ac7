// Package experiments reproduces every table and figure in the paper's
// evaluation. Each experiment returns a result struct with a Format method
// printing rows in the spirit of the original figure; cmd/flbench and the
// root benchmarks call these entry points. Absolute values differ from the
// paper (simulated fleet vs. Google's production fleet); the shapes —
// oscillations, ratios, who wins — are the reproduction target.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/population"
	"repro/internal/sim"
)

// stdPlan is the FL task used by the operational experiments: a
// keyboard-sized MLP trained by a few hundred devices per round.
func stdPlan(target int) (*plan.Plan, error) {
	return plan.Generate(plan.Config{
		TaskID:            "gboard/next-word",
		Population:        "gboard",
		Model:             nn.Spec{Kind: nn.KindMLP, Features: 64, Hidden: 128, Classes: 32, Seed: 1},
		StoreName:         "typed",
		BatchSize:         20,
		Epochs:            1,
		LearningRate:      0.1,
		TargetDevices:     target,
		SelectionTimeout:  time.Minute,
		ReportTimeout:     2 * time.Minute,
		MinReportFraction: 0.7,
	})
}

// stdSim runs the canonical three-day simulation behind Figs. 5–9/Table 1.
func stdSim(seed uint64, days int, popSize, target int) (*sim.Results, error) {
	p, err := stdPlan(target)
	if err != nil {
		return nil, err
	}
	return sim.Run(sim.Config{
		Population:        population.Config{Size: popSize, Seed: seed},
		Plan:              p,
		Duration:          time.Duration(days) * 24 * time.Hour,
		PerExampleCost:    200 * time.Millisecond,
		ExamplesPerDevice: 100,
		Pipelining:        true,
		Seed:              seed + 1,
	})
}

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
}

// Fig6 runs the diurnal experiment.
func Fig6(seed uint64, days, popSize, target int) (*Fig6Result, error) {
	res, err := stdSim(seed, days, popSize, target)
	if err != nil {
		return nil, err
	}
	var sums [24]HourPoint
	var counts [24]int
	var avail, compl []float64
	for _, s := range res.Samples {
		h := s.T.Hour()
		sums[h].Participating += float64(s.Participating)
		sums[h].Waiting += float64(s.Waiting)
		sums[h].Completions += float64(s.CompletionRate)
		sums[h].Failures += float64(s.FailureRate)
		counts[h]++
		avail = append(avail, s.Available)
		compl = append(compl, float64(s.CompletionRate))
	}
	out := &Fig6Result{}
	minC, maxC := -1.0, 0.0
	for h := 0; h < 24; h++ {
		if counts[h] == 0 {
			continue
		}
		n := float64(counts[h])
		hp := HourPoint{
			Hour:          h,
			Participating: sums[h].Participating / n,
			Waiting:       sums[h].Waiting / n,
			Completions:   sums[h].Completions / n,
			Failures:      sums[h].Failures / n,
		}
		out.Hours = append(out.Hours, hp)
		conn := hp.Participating + hp.Waiting
		if conn > maxC {
			maxC = conn
		}
		if minC < 0 || conn < minC {
			minC = conn
		}
	}
	if minC > 0 {
		out.SwingRatio = maxC / minC
	}
	out.Correlation = pearson(avail, compl)
	return out, nil
}

// Format renders the figure as an hourly table with spark bars.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5/6 — Diurnal device participation and round completion rate\n")
	fmt.Fprintf(&b, "%-5s %14s %10s %12s %9s  connected\n", "hour", "participating", "waiting", "rounds/hour", "failures")
	maxConn := 0.0
	for _, h := range r.Hours {
		if c := h.Participating + h.Waiting; c > maxConn {
			maxConn = c
		}
	}
	for _, h := range r.Hours {
		conn := h.Participating + h.Waiting
		bar := ""
		if maxConn > 0 {
			bar = strings.Repeat("#", int(30*conn/maxConn))
		}
		fmt.Fprintf(&b, "%02d:00 %14.0f %10.0f %12.1f %9.1f  %s\n",
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
}

// Fig7Hour is one hour-of-day row.
type Fig7Hour struct {
	Hour                        int
	Completed, Aborted, Dropped float64
}

// Fig7 runs the round-outcome experiment.
func Fig7(seed uint64, days, popSize, target int) (*Fig7Result, error) {
	res, err := stdSim(seed, days, popSize, target)
	if err != nil {
		return nil, err
	}
	var comp, abrt, drop, cnt [24]float64
	var dayDrop, daySel, nightDrop, nightSel float64
	for _, r := range res.Rounds {
		if !r.Succeeded {
			continue
		}
		h := r.Start.Hour()
		comp[h] += float64(r.Completed)
		abrt[h] += float64(r.Aborted + r.Late)
		drop[h] += float64(r.Dropped)
		cnt[h]++
		switch {
		case h >= 11 && h < 17:
			dayDrop += float64(r.Dropped)
			daySel += float64(r.Selected)
		case h < 5:
			nightDrop += float64(r.Dropped)
			nightSel += float64(r.Selected)
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
	return out, nil
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
	return b.String()
}

// Fig8Result reproduces Fig. 8: distributions of round run time and device
// participation time, with the server-imposed straggler cap visible.
type Fig8Result struct {
	RunTimeP50, RunTimeP90, RunTimeP99                   float64
	ParticipationP50, ParticipationP90, ParticipationMax float64
	CapSeconds                                           float64
}

// Fig8 runs the timing experiment.
func Fig8(seed uint64, days, popSize, target int) (*Fig8Result, error) {
	res, err := stdSim(seed, days, popSize, target)
	if err != nil {
		return nil, err
	}
	p, err := stdPlan(target)
	if err != nil {
		return nil, err
	}
	return &Fig8Result{
		RunTimeP50:       res.RunTimeSummary.P50,
		RunTimeP90:       res.RunTimeSummary.P90,
		RunTimeP99:       res.RunTimeSummary.P99,
		ParticipationP50: res.ParticipationSummary.P50,
		ParticipationP90: res.ParticipationSummary.P90,
		ParticipationMax: res.ParticipationSummary.Max,
		CapSeconds:       p.Server.ParticipationCap.Seconds(),
	}, nil
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

// Fig9 runs the traffic experiment.
func Fig9(seed uint64, days, popSize, target int) (*Fig9Result, error) {
	res, err := stdSim(seed, days, popSize, target)
	if err != nil {
		return nil, err
	}
	down := res.Metrics.Counter(metrics.NetTxBytes).Value()
	up := res.Metrics.Counter(metrics.NetRxBytes).Value()
	out := &Fig9Result{DownloadBytes: down, UploadBytes: up, Days: days}
	if up > 0 {
		out.Ratio = float64(down) / float64(up)
	}
	return out, nil
}

// Format renders the Fig. 9 totals.
func (r *Fig9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — Server network traffic over %d days\n", r.Days)
	fmt.Fprintf(&b, "download (server→device): %8.1f MB   (plan + global model)\n", float64(r.DownloadBytes)/1e6)
	fmt.Fprintf(&b, "upload   (device→server): %8.1f MB   (compressed updates)\n", float64(r.UploadBytes)/1e6)
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

// Table1 runs the session-shape experiment.
func Table1(seed uint64, days, popSize, target int) (*Table1Result, error) {
	res, err := stdSim(seed, days, popSize, target)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{}
	for shape, n := range res.Metrics.CounterFamily(metrics.SessionShapes, "shape") {
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
	return out, nil
}

// Format renders the table with the paper's legend.
func (r *Table1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — Distribution of on-device training round sessions\n")
	fmt.Fprintf(&b, "%-12s %10s %8s\n", "shape", "count", "percent")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10d %7.0f%%\n", row.Shape, row.Count, row.Percent)
	}
	fmt.Fprintf(&b, "(paper: -v[]+^ 75%%, -v[]+# 22%%, -v[! 2%%)\n")
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
