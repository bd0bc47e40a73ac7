package experiments

import (
	"strings"
	"testing"
)

// The experiment tests assert the *shape* claims of each figure — the same
// checks EXPERIMENTS.md documents — at reduced scale so the suite stays
// fast.

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(1, 2, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hours) != 24 {
		t.Fatalf("hours = %d", len(r.Hours))
	}
	if r.SwingRatio < 2 {
		t.Fatalf("diurnal swing %v, want > 2 (paper ~4x)", r.SwingRatio)
	}
	if r.Correlation < 0.3 {
		t.Fatalf("completion/availability correlation %v, want positive sync", r.Correlation)
	}
	if !strings.Contains(r.Format(), "swing") {
		t.Fatal("Format missing swing line")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(2, 2, 4000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.DayDropRate <= r.NightDropRate {
		t.Fatalf("day drop %v should exceed night %v", r.DayDropRate, r.NightDropRate)
	}
	if r.NightDropRate < 0.02 || r.DayDropRate > 0.2 {
		t.Fatalf("drop rates outside plausible band: %v / %v", r.NightDropRate, r.DayDropRate)
	}
	// Completed should dominate aborted and dropped in every hour.
	for _, h := range r.Hours {
		if h.Completed < h.Dropped || h.Completed < h.Aborted {
			t.Fatalf("hour %d: completed %v should dominate (aborted %v dropped %v)",
				h.Hour, h.Completed, h.Aborted, h.Dropped)
		}
	}
	if !strings.Contains(r.Format(), "drop-out rate") {
		t.Fatal("Format missing dropout line")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(3, 2, 4000, 100)
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := Fig9(4, 2, 4000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio < 2 {
		t.Fatalf("download/upload ratio %v, want ≥ 2", r.Ratio)
	}
	if !strings.Contains(r.Format(), "download") {
		t.Fatal("Format missing traffic lines")
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(5, 2, 4000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].Shape != "-v[]+^" || r.Rows[0].Percent < 60 {
		t.Fatalf("top shape %q at %v%%, want -v[]+^ as large majority", r.Rows[0].Shape, r.Rows[0].Percent)
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
	// Devices served the Quant8 round trip of the float64 master learn as
	// well: the quantized downlink costs at most a point of recall.
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

func TestOverSelectMatrix(t *testing.T) {
	r, err := OverSelect([]float64{1.0, 1.1, 1.3, 1.5}, []float64{0.06, 0.10}, 100, 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	// At 130% over-selection both paper drop-out rates give near-certain
	// completion; at 100% they give near-zero.
	for di := range r.DropRates {
		if r.Completion[di][2] < 0.99 {
			t.Fatalf("130%% over-selection should complete reliably: %v", r.Completion[di])
		}
		if r.Completion[di][0] > 0.1 {
			t.Fatalf("no over-selection should rarely complete: %v", r.Completion[di])
		}
		// Monotone in the factor.
		for fi := 1; fi < len(r.Factors); fi++ {
			if r.Completion[di][fi] < r.Completion[di][fi-1]-0.02 {
				t.Fatalf("completion not monotone in factor: %v", r.Completion[di])
			}
		}
	}
	if _, err := OverSelect(nil, nil, 0, 0, 1); err == nil {
		t.Fatal("bad params must fail")
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
	r, err := WallClock(3)
	if err != nil {
		t.Fatal(err)
	}
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

func TestAdaptiveExperiment(t *testing.T) {
	r, err := Adaptive(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 1 {
		t.Fatalf("adaptive windows should speed rounds up: %+v", r)
	}
	if r.AdaptiveSuccess < r.StaticSuccess*0.9 {
		t.Fatalf("adaptive success collapsed: %+v", r)
	}
}
