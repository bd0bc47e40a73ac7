package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// WallClockResult reproduces the Sec. 8 wall-clock analysis: the Gboard
// model "converges in 3000 FL rounds … over 5 days of training (so each
// round takes about 2–3 minutes)". We couple a fleet run's round timeline
// with real federated training and report the analogous numbers at laptop
// scale.
type WallClockResult struct {
	TargetAccuracy  float64
	RoundsToTarget  int
	SimTimeToTarget time.Duration
	MinutesPerRound float64
	FinalAccuracy   float64
	TotalRounds     int
	SimDuration     time.Duration
}

// WallClock trains a real model through a fleet run's round timeline: round
// i of training takes as many users as round i of the run committed
// reports, and completes at the instant that round committed.
func WallClock(run *sim.FleetRun, seed uint64) (*WallClockResult, error) {
	fed, err := data.Blobs(data.BlobsConfig{
		Users: 200, ExamplesPer: 20, Features: 16, Classes: 8,
		TestSize: 600, Skew: 1.0, Seed: seed + 2,
	})
	if err != nil {
		return nil, err
	}
	tr, err := fedavg.NewTrainer(nn.Spec{Kind: nn.KindLogistic, Features: 16, Classes: 8, Seed: 1}, fedavg.ClientConfig{
		BatchSize: 10, Epochs: 2, LR: 0.1, Shuffle: true,
	}, seed+3)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed + 4)

	out := &WallClockResult{TargetAccuracy: 0.9, SimDuration: time.Duration(run.Days) * 24 * time.Hour}
	var last time.Time
	for _, round := range run.Rounds {
		if !round.Committed {
			continue
		}
		k := min(round.Reports, len(fed.Users))
		perm := rng.Perm(len(fed.Users))
		sel := make([][]nn.Example, k)
		for i := 0; i < k; i++ {
			sel[i] = fed.Users[perm[i]]
		}
		if _, err := tr.Round(sel); err != nil {
			return nil, err
		}
		out.TotalRounds++
		last = round.End
		// Evaluate sparsely: accuracy checks are the expensive part.
		if out.RoundsToTarget == 0 && out.TotalRounds%5 == 0 {
			if tr.Evaluate(fed.Test).Accuracy >= out.TargetAccuracy {
				out.RoundsToTarget = out.TotalRounds
				out.SimTimeToTarget = round.End.Sub(run.Start)
			}
		}
	}
	out.FinalAccuracy = tr.Evaluate(fed.Test).Accuracy
	if out.TotalRounds > 0 {
		out.MinutesPerRound = last.Sub(run.Start).Minutes() / float64(out.TotalRounds)
	}
	return out, nil
}

// Format renders the wall-clock summary.
func (r *WallClockResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. 8 — Wall-clock convergence (fleet run timeline × real training)\n")
	if r.RoundsToTarget > 0 {
		fmt.Fprintf(&b, "reached %.0f%% accuracy after %d rounds = %.1f simulated hours\n",
			100*r.TargetAccuracy, r.RoundsToTarget, r.SimTimeToTarget.Hours())
	} else {
		fmt.Fprintf(&b, "target %.0f%% accuracy not reached in %d rounds\n", 100*r.TargetAccuracy, r.TotalRounds)
	}
	fmt.Fprintf(&b, "%d rounds over %.0f simulated hours ≈ %.1f minutes/round (paper: ~2–3 min/round, 3000 rounds over 5 days)\n",
		r.TotalRounds, r.SimDuration.Hours(), r.MinutesPerRound)
	fmt.Fprintf(&b, "final accuracy: %.3f\n", r.FinalAccuracy)
	return b.String()
}
