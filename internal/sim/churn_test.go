package sim

import (
	"reflect"
	"testing"

	"repro/internal/secagg"
	"repro/internal/tensor"
)

// casualties is how many devices the schedule removes from the final unmask
// round: one fault each.
func casualties(s secagg.Faults) int { return len(s) }

func TestSecAggChurnRespectsSurvivalBudget(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, tc := range []struct{ n, t int }{{8, 5}, {16, 9}, {64, 33}} {
		for _, rate := range []float64{0, 0.1, 0.5, 1.0} {
			s := SecAggChurn(tc.n, tc.t, ChurnConfig{DropRate: rate, PoisonRate: rate / 4}, rng)
			if c := casualties(s); c > tc.n-tc.t {
				t.Fatalf("n=%d t=%d rate=%v: %d casualties exceed budget %d", tc.n, tc.t, rate, c, tc.n-tc.t)
			}
		}
	}
}

func TestSecAggChurnDeterministicPerSeed(t *testing.T) {
	draw := func() secagg.Faults {
		return SecAggChurn(32, 17, ChurnConfig{DropRate: 0.3, PoisonRate: 0.05, ForgeRate: 0.05}, tensor.NewRNG(42))
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed must draw the same schedule: %+v vs %+v", a, b)
	}
	if casualties(a) == 0 {
		t.Fatal("30% churn over 32 devices should hit someone")
	}
}

// TestSecAggChurnScheduleIsSurvivable closes the loop: any drawn schedule
// runs through the real protocol, as faults on its links, and commits.
func TestSecAggChurnScheduleIsSurvivable(t *testing.T) {
	rng := tensor.NewRNG(11)
	cfg := secagg.Config{N: 16, T: 9, VectorLen: 4}
	inputs := make(map[int][]float64, cfg.N)
	for id := 1; id <= cfg.N; id++ {
		inputs[id] = []float64{float64(id), 1, 2, 3}
	}
	for trial := 0; trial < 5; trial++ {
		faults := SecAggChurn(cfg.N, cfg.T, ChurnConfig{DropRate: 0.4, PoisonRate: 0.1, ForgeRate: 0.1}, rng)
		res, err := secagg.Run(cfg, inputs, faults.Link, make([]float64, cfg.VectorLen))
		if err != nil {
			t.Fatalf("trial %d schedule %v must commit: %v", trial, faults, err)
		}
		if len(res.Survivors) < cfg.T {
			t.Fatalf("trial %d: %d survivors < T", trial, len(res.Survivors))
		}
	}
}
