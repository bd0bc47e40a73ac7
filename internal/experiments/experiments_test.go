package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// The experiment tests assert the *shape* claims of each figure at reduced
// scale so the suite stays fast, all on the round engine. Figs. 6–9, Table 1
// and the wall-clock analysis read one fleet run: a day of a fleet small
// enough that availability, not demand, limits the day's rounds. The
// learning claims train through sim.Train.

var (
	fleetOnce sync.Once
	fleetRun  *sim.FleetRun
	fleetErr  error
)

func testFleet(t *testing.T) *sim.FleetRun {
	t.Helper()
	fleetOnce.Do(func() {
		fleetRun, fleetErr = sim.RunFleet(sim.FleetConfig{Seed: 1, Days: 1, Devices: 15000, Target: testTarget})
	})
	if fleetErr != nil {
		t.Fatal(fleetErr)
	}
	return fleetRun
}

func TestFig6Shape(t *testing.T) {
	r := Fig6(testFleet(t))
	if len(r.Hours) != 24 {
		t.Fatalf("hours = %d", len(r.Hours))
	}
	if r.SwingRatio < 2 {
		t.Fatalf("diurnal swing %v, want > 2 (paper ~4x)", r.SwingRatio)
	}
	if r.Correlation < 0.3 {
		t.Fatalf("completion/availability correlation %v, want positive sync", r.Correlation)
	}
	// A population this small cannot always assemble K devices by day.
	if r.Failed == 0 {
		t.Fatal("no round failed: the daytime trough should starve some")
	}
	if !strings.Contains(r.Format(), "swing") {
		t.Fatal("Format missing swing line")
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7(testFleet(t))
	if r.DayDropRate <= r.NightDropRate {
		t.Fatalf("day drop %v should exceed night %v", r.DayDropRate, r.NightDropRate)
	}
	if r.NightDropRate < 0.02 || r.DayDropRate > 0.2 {
		t.Fatalf("drop rates outside plausible band: %v / %v", r.NightDropRate, r.DayDropRate)
	}
	// With 130% over-selection and 6–10% drop-out, committed rounds
	// overwhelmingly reach the full goal count (Sec. 9).
	if r.FullRounds < 0.9 {
		t.Fatalf("only %v of committed rounds reached K", r.FullRounds)
	}
	// Completed dominates aborted and dropped in every hour, and every hour
	// turns over-selected devices away.
	for _, h := range r.Hours {
		if h.Completed < h.Dropped || h.Completed < h.Aborted {
			t.Fatalf("hour %d: completed %v should dominate (aborted %v dropped %v)",
				h.Hour, h.Completed, h.Aborted, h.Dropped)
		}
		if h.Aborted == 0 {
			t.Fatalf("hour %d: no over-selected device was aborted", h.Hour)
		}
	}
	if !strings.Contains(r.Format(), "drop-out rate") {
		t.Fatal("Format missing dropout line")
	}
}

func TestOverSelectMatrix(t *testing.T) {
	// The same fleet at over-selection factors 1.0 and 1.3. The engine
	// replaces a device it loses, so committed rounds reach the goal count
	// either way; what over-selection buys is the straggler tail: the seal
	// aborts the slowest devices instead of waiting for them.
	factors := []float64{1.0, 1.3}
	exact, err := sim.RunFleet(sim.FleetConfig{Seed: 1, Days: 1, Devices: 15000, Target: testTarget, OverSelect: factors[0]})
	if err != nil {
		t.Fatal(err)
	}
	var aborted, p50 [2]float64
	// The shared run over-selects at the plan default, 1.3.
	for i, run := range []*sim.FleetRun{exact, testFleet(t)} {
		r7 := Fig7(run)
		if r7.FullRounds < 0.9 {
			t.Fatalf("factor %v: only %v of committed rounds reached K", factors[i], r7.FullRounds)
		}
		for _, h := range r7.Hours {
			aborted[i] += h.Aborted / float64(len(r7.Hours))
		}
		p50[i] = Fig8(run).RunTimeP50
	}
	if aborted[0] >= aborted[1] {
		t.Fatalf("aborted devices per round %v should grow with the factor %v", aborted, factors)
	}
	if p50[1] >= p50[0] {
		t.Fatalf("round time P50 %v should fall with the factor %v", p50, factors)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8(testFleet(t))
	if r.ParticipationMax > r.CapSeconds+1e-9 {
		t.Fatalf("participation max %v exceeds cap %v", r.ParticipationMax, r.CapSeconds)
	}
	if r.RunTimeP50 <= 0 || r.ParticipationP50 <= 0 {
		t.Fatalf("degenerate distributions: %+v", r)
	}
	// "round run time is roughly equal to the majority of the device
	// participation time".
	if r.RunTimeP50 < r.ParticipationP50/3 {
		t.Fatalf("round P50 %v vs participation P50 %v", r.RunTimeP50, r.ParticipationP50)
	}
}

func TestFig9Shape(t *testing.T) {
	// Download dominates upload, by the plan each configured session
	// downloads with the model and by the configured sessions that never
	// upload (over-selection, drop-out): an upload is one model-sized update.
	run := testFleet(t)
	r := Fig9(run)
	dp, _ := run.Plan.MarshalDevice()
	global, err := run.Lineage[0].Marshal(run.Plan.DownlinkEncoding())
	if err != nil {
		t.Fatal(err)
	}
	update, err := run.Lineage[0].Marshal(run.Plan.UplinkEncoding())
	if err != nil {
		t.Fatal(err)
	}
	var configured int64
	for _, n := range run.Metrics.CounterFamily(metrics.SessionShapes, "shape") {
		configured += n
	}
	uploads := r.UploadBytes / int64(len(update))
	perSession := float64(len(dp)+len(global)) / float64(len(update))
	if min := perSession * float64(configured) / float64(uploads); r.Ratio <= 1 || r.Ratio < min {
		t.Fatalf("download/upload ratio %v, want > 1 and ≥ %.3f (plan+model down, update up) × %d configured / %d uploads",
			r.Ratio, perSession, configured, uploads)
	}
	if !strings.Contains(r.Format(), "download") {
		t.Fatal("Format missing traffic lines")
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1(testFleet(t))
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].Shape != "-v[]+^" || r.Rows[0].Percent < 60 {
		t.Fatalf("top shape %q at %v%%, want -v[]+^ as large majority", r.Rows[0].Shape, r.Rows[0].Percent)
	}
	var rejected, interrupted int
	for _, row := range r.Rows {
		switch {
		case strings.HasSuffix(row.Shape, "#"):
			rejected += row.Count
		case strings.HasSuffix(row.Shape, "!"):
			interrupted += row.Count
		}
	}
	if rejected == 0 || interrupted == 0 || interrupted >= r.Rows[0].Count {
		t.Fatalf("want rejected and (a minority of) interrupted sessions: %+v", r.Rows)
	}
	if !strings.Contains(r.Format(), "legend") {
		t.Fatal("Format missing legend")
	}
}

func TestNextWordShape(t *testing.T) {
	r, err := NextWord(NextWordConfig{
		Users: 60, SentencesPer: 20, SentenceLen: 6, Vocab: 16,
		Rounds: 40, DevicesPer: 15, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / 16
	if r.FederatedRNN < 2*chance {
		t.Fatalf("federated recall %v barely above chance %v", r.FederatedRNN, chance)
	}
	// Paper: FL RNN beats the n-gram baseline... at this tiny scale we
	// require it to be at least competitive (within 15%) and clearly
	// matching the centralized RNN.
	if r.FederatedRNN < r.Bigram*0.85 {
		t.Fatalf("federated %v much worse than bigram %v", r.FederatedRNN, r.Bigram)
	}
	if r.FederatedRNN < r.CentralizedRNN-0.1 {
		t.Fatalf("federated %v should approach centralized %v", r.FederatedRNN, r.CentralizedRNN)
	}
	if len(r.RecallCurve) < 2 || r.RecallCurve[len(r.RecallCurve)-1] <= r.RecallCurve[0]*0.9 {
		t.Fatalf("recall should improve over rounds: %v", r.RecallCurve)
	}
	// Under the default plan devices report in Quant8 and are served the
	// float64 master's Quant8 round trip, and learn as well: the quantized
	// links cost at most a point of recall.
	if gap := r.FederatedRNN - r.FederatedRNNQuant8; gap > 0.01 {
		t.Fatalf("quant8 downlink recall %v trails float64 %v by %v > 0.01", r.FederatedRNNQuant8, r.FederatedRNN, gap)
	}
	if !strings.Contains(r.Format(), "quant8") {
		t.Fatal("Format missing the quant8 downlink line")
	}
}

func TestKSweepDiminishingReturns(t *testing.T) {
	r, err := KSweep([]int{1, 5, 20, 60}, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Accuracies) != 4 {
		t.Fatalf("accuracies = %v", r.Accuracies)
	}
	gainSmall := r.Accuracies[1] - r.Accuracies[0] // 1 -> 5
	gainLarge := r.Accuracies[3] - r.Accuracies[2] // 20 -> 60
	if gainLarge > gainSmall {
		t.Fatalf("returns should diminish: small-K gain %v, large-K gain %v (acc %v)",
			gainSmall, gainLarge, r.Accuracies)
	}
	if r.Accuracies[3] < 0.8 {
		t.Fatalf("final accuracy %v too low", r.Accuracies[3])
	}
}

func TestSecAggCostSuperlinear(t *testing.T) {
	r, err := SecAggCost([]int{4, 8, 16, 32}, 64, 128, []float64{0, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RecoveryTime) != 4 || len(r.RecoveryTime[0]) != 2 {
		t.Fatalf("recovery axis shape: %+v", r.RecoveryTime)
	}
	for si := range r.RecoveryTime {
		for ri, d := range r.RecoveryTime[si] {
			if d <= 0 {
				t.Fatalf("RecoveryTime[%d][%d] = %v, want > 0", si, ri, d)
			}
		}
	}
	// Quadratic server cost: time per device grows with group size.
	perDeviceFirst := float64(r.ServerTime[0]) / 4
	perDeviceLast := float64(r.ServerTime[3]) / 32
	if perDeviceLast <= perDeviceFirst {
		t.Fatalf("per-device cost should grow with group size: %v vs %v",
			perDeviceFirst, perDeviceLast)
	}
	// Grouping keeps the total for 128 devices far below one 128-group.
	if !strings.Contains(r.Format(), "group") {
		t.Fatal("Format missing")
	}
}

func TestPacingRegimes(t *testing.T) {
	r, err := Pacing(3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r.SmallConcentration < 0.9 {
		t.Fatalf("small-population concentration %v, want ≥ 0.9", r.SmallConcentration)
	}
	if r.LargePeakToMean > 3 {
		t.Fatalf("large-population peak/mean %v indicates a herd spike", r.LargePeakToMean)
	}
	if _, err := Pacing(0, 1); err == nil {
		t.Fatal("bad params must fail")
	}
}

func TestWallClockConvergence(t *testing.T) {
	r := WallClock(testFleet(t))
	if r.TotalRounds < 50 {
		t.Fatalf("one simulated day should give many rounds, got %d", r.TotalRounds)
	}
	if r.RoundsToTarget == 0 {
		t.Fatalf("never reached %.0f%% accuracy (final %.3f after %d rounds)",
			100*r.TargetAccuracy, r.FinalAccuracy, r.TotalRounds)
	}
	if r.SimTimeToTarget <= 0 || r.MinutesPerRound <= 0 {
		t.Fatalf("degenerate timing: %+v", r)
	}
	// The paper's "2–3 minutes per round" shape: rounds take on the order
	// of minutes, not milliseconds or hours.
	if r.MinutesPerRound < 0.1 || r.MinutesPerRound > 30 {
		t.Fatalf("minutes/round = %v, want order-of-minutes", r.MinutesPerRound)
	}
}
