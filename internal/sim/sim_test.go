package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/population"
)

func simPlan(t *testing.T, target int) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID:            "pop/train",
		Population:        "pop",
		Model:             nn.Spec{Kind: nn.KindMLP, Features: 20, Hidden: 32, Classes: 5, Seed: 1},
		StoreName:         "s",
		BatchSize:         10,
		Epochs:            1,
		LearningRate:      0.1,
		TargetDevices:     target,
		SelectionTimeout:  time.Minute,
		ReportTimeout:     2 * time.Minute,
		MinReportFraction: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run3Days(t *testing.T, popSize, target int) *Results {
	t.Helper()
	res, err := Run(Config{
		Population:        population.Config{Size: popSize, Seed: 3},
		Plan:              simPlan(t, target),
		Duration:          72 * time.Hour,
		PerExampleCost:    200 * time.Millisecond,
		ExamplesPerDevice: 100,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil plan must fail")
	}
	if _, err := Run(Config{Plan: simPlan(t, 10)}); err == nil {
		t.Fatal("zero duration must fail")
	}
}

func TestSimulationProducesRounds(t *testing.T) {
	res := run3Days(t, 5000, 100)
	if res.CompletedRounds() < 100 {
		t.Fatalf("3 days should give many rounds, got %d", res.CompletedRounds())
	}
	if res.FinalRound != int64(res.CompletedRounds()) {
		t.Fatalf("round counter %d != completed %d", res.FinalRound, res.CompletedRounds())
	}
	if len(res.Samples) < 70 {
		t.Fatalf("expected ~72 hourly samples, got %d", len(res.Samples))
	}
}

func TestDiurnalParticipationOscillates(t *testing.T) {
	// Fig. 6: participation and completion rate oscillate with the day.
	res := run3Days(t, 3000, 200)
	// Aggregate by hour-of-day.
	byHour := map[int][]float64{}
	for _, s := range res.Samples {
		h := s.T.Hour()
		byHour[h] = append(byHour[h], float64(s.Participating+s.Waiting))
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	night := mean(append(byHour[1], byHour[2]...)) // availability peak
	day := mean(append(byHour[13], byHour[14]...)) // trough
	if night <= day {
		t.Fatalf("connected devices at night (%v) should exceed day (%v)", night, day)
	}
	if night/day < 2 {
		t.Fatalf("diurnal swing %vx, want clearly > 2x (paper: 4x)", night/day)
	}
}

func TestDropoutHigherByDay(t *testing.T) {
	// Fig. 7: per-round drop-out is higher during daytime.
	res := run3Days(t, 5000, 100)
	dayDrop, dayN := 0, 0
	nightDrop, nightN := 0, 0
	for _, r := range res.Rounds {
		if !r.Succeeded || r.Selected == 0 {
			continue
		}
		h := r.Start.Hour()
		switch {
		case h >= 12 && h < 18:
			dayDrop += r.Dropped
			dayN += r.Selected
		case h < 6:
			nightDrop += r.Dropped
			nightN += r.Selected
		}
	}
	if dayN == 0 || nightN == 0 {
		t.Fatal("no rounds in one of the windows")
	}
	dayRate := float64(dayDrop) / float64(dayN)
	nightRate := float64(nightDrop) / float64(nightN)
	if dayRate <= nightRate {
		t.Fatalf("day drop rate %v should exceed night %v", dayRate, nightRate)
	}
	// Paper band: 6%–10%.
	if nightRate < 0.03 || dayRate > 0.15 {
		t.Fatalf("drop rates outside plausible band: night %v day %v", nightRate, dayRate)
	}
}

func TestOverSelectionAbsorbsDropout(t *testing.T) {
	// With 130% over-selection and 6–10% drop-out, rounds overwhelmingly
	// succeed with the full target count (Sec. 9).
	res := run3Days(t, 5000, 100)
	full := 0
	succeeded := 0
	for _, r := range res.Rounds {
		if r.Succeeded {
			succeeded++
			if r.Completed >= 100 {
				full++
			}
		}
	}
	if succeeded == 0 {
		t.Fatal("no successful rounds")
	}
	if frac := float64(full) / float64(succeeded); frac < 0.9 {
		t.Fatalf("only %v of rounds reached the full target", frac)
	}
}

func TestParticipationCapped(t *testing.T) {
	// Fig. 8: device participation time is capped by the server.
	res := run3Days(t, 5000, 100)
	cap := simPlan(t, 100).Server.ParticipationCap.Seconds()
	if res.ParticipationSummary.Max > cap+1e-9 {
		t.Fatalf("participation %vs exceeds cap %vs", res.ParticipationSummary.Max, cap)
	}
	// Round run time ≈ the long tail of participation time (the round
	// commits when the K-th device reports).
	if res.RunTimeSummary.P50 <= res.ParticipationSummary.P50/4 {
		t.Fatalf("round time P50 %v implausibly small vs participation P50 %v",
			res.RunTimeSummary.P50, res.ParticipationSummary.P50)
	}
}

func TestTrafficAsymmetry(t *testing.T) {
	// Fig. 9: download from server dominates upload.
	res := run3Days(t, 5000, 100)
	down, up := traffic(res)
	if down <= up {
		t.Fatalf("download %d should exceed upload %d", down, up)
	}
	ratio := float64(down) / float64(up)
	if ratio < 2 {
		t.Fatalf("download/upload ratio %v, want ≥ 2 (plan+model down, compressed update up)", ratio)
	}
}

func TestSessionShapeDistribution(t *testing.T) {
	// Table 1: successful sessions dominate, then rejected uploads, then
	// interruptions.
	res := run3Days(t, 5000, 100)
	shapes := res.Metrics.CounterFamily(metrics.SessionShapes, "shape")
	var total, rejected, interrupted int64
	for shape, n := range shapes {
		total += n
		if n > shapes["-v[]+^"] {
			t.Fatalf("shape %q (%d) is more common than -v[]+^ (%d)", shape, n, shapes["-v[]+^"])
		}
		if strings.HasSuffix(shape, "#") {
			rejected += n
		}
		if strings.HasSuffix(shape, "!") {
			interrupted += n
		}
	}
	if total == 0 {
		t.Fatal("no sessions observed")
	}
	if pct := 100 * float64(shapes["-v[]+^"]) / float64(total); pct < 60 {
		t.Fatalf("success rate %v%%, want the large majority (paper: 75%%)", pct)
	}
	if rejected <= 0 || interrupted <= 0 {
		t.Fatalf("expected both rejected and interrupted sessions: %v", shapes)
	}
	if interrupted >= shapes["-v[]+^"] {
		t.Fatal("interruption should be a minority outcome")
	}
}

func TestSmallPopulationRoundsFailSometimes(t *testing.T) {
	// A tiny population cannot always assemble 100 devices.
	res, err := Run(Config{
		Population: population.Config{Size: 150, Seed: 3},
		Plan:       simPlan(t, 100),
		Duration:   24 * time.Hour,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := len(res.Rounds) - res.CompletedRounds()
	if failed == 0 {
		t.Fatal("a 150-device population should fail some 100-device rounds")
	}
}

func TestPipeliningIncreasesRoundRate(t *testing.T) {
	// Sec. 4.3 ablation: overlapping selection with reporting increases
	// rounds per hour.
	base := Config{
		Population:        population.Config{Size: 5000, Seed: 3},
		Plan:              simPlan(t, 100),
		Duration:          24 * time.Hour,
		PerExampleCost:    500 * time.Millisecond,
		ExamplesPerDevice: 200,
		Seed:              7,
	}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	piped := base
	piped.Pipelining = true
	pip, err := Run(piped)
	if err != nil {
		t.Fatal(err)
	}
	if pip.CompletedRounds() <= seq.CompletedRounds() {
		t.Fatalf("pipelining should increase rounds: %d vs %d",
			pip.CompletedRounds(), seq.CompletedRounds())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := run3Days(t, 1000, 50)
	b := run3Days(t, 1000, 50)
	if a.CompletedRounds() != b.CompletedRounds() || len(a.Rounds) != len(b.Rounds) {
		t.Fatal("same seed must reproduce the simulation")
	}
	da, _ := traffic(a)
	db, _ := traffic(b)
	if da != db {
		t.Fatal("traffic must be deterministic")
	}
}

func TestCompletionRateTracksAvailability(t *testing.T) {
	// Fig. 6 bottom: round completion rate oscillates in sync with device
	// availability. Correlate the hourly series.
	res := run3Days(t, 2500, 150)
	var av, cr []float64
	for _, s := range res.Samples {
		av = append(av, s.Available)
		cr = append(cr, float64(s.CompletionRate))
	}
	if corr := pearson(av, cr); corr < 0.3 {
		t.Fatalf("completion rate should correlate with availability, r=%v", corr)
	}
}

// traffic reads Fig. 9's totals off the run's registry.
func traffic(res *Results) (down, up int64) {
	return res.Metrics.Counter(metrics.NetTxBytes).Value(), res.Metrics.Counter(metrics.NetRxBytes).Value()
}

func pearson(a, b []float64) float64 {
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
	den := math.Sqrt((saa - sa*sa/n) * (sbb - sb*sb/n))
	if den == 0 {
		return 0
	}
	return num / den
}

func TestAdaptiveWindowIncreasesRoundRate(t *testing.T) {
	// Sec. 11 extension: a statically configured report window wastes time
	// whenever a round cannot reach its goal count — the server waits out
	// the whole window before committing a partial round. Tuning the window
	// to the observed reporting-time distribution cuts that wait. Scenario:
	// a generous 10-minute static window plus drop-out heavy enough that
	// rounds routinely miss the goal count.
	p, err := plan.Generate(plan.Config{
		TaskID: "pop/train", Population: "pop",
		Model:     nn.Spec{Kind: nn.KindMLP, Features: 20, Hidden: 32, Classes: 5, Seed: 1},
		StoreName: "s", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 100, SelectionTimeout: time.Minute,
		ReportTimeout: 10 * time.Minute, MinReportFraction: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Population: population.Config{
			Size: 5000, SpeedSigma: 0.5, Seed: 3,
			NightDropout: 0.30, DayDropout: 0.35,
		},
		Plan:              p,
		Duration:          24 * time.Hour,
		PerExampleCost:    800 * time.Millisecond,
		ExamplesPerDevice: 120,
		Seed:              7,
	}
	static, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCfg := base
	adaptiveCfg.AdaptiveWindow = true
	adaptive, err := Run(adaptiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.CompletedRounds() <= static.CompletedRounds() {
		t.Fatalf("adaptive window should increase rounds: %d vs %d",
			adaptive.CompletedRounds(), static.CompletedRounds())
	}
	staticRate := float64(static.CompletedRounds()) / float64(len(static.Rounds))
	adaptiveRate := float64(adaptive.CompletedRounds()) / float64(len(adaptive.Rounds))
	if adaptiveRate < staticRate*0.9 {
		t.Fatalf("adaptive window collapsed success rate: %v vs %v", adaptiveRate, staticRate)
	}
}
