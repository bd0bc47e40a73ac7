package fedavg

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func logisticSpec() nn.Spec {
	return nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1}
}

func fedBlobs(t *testing.T, users int, skew float64) *data.Federated {
	t.Helper()
	f, err := data.Blobs(data.BlobsConfig{
		Users: users, ExamplesPer: 30, Features: 4, Classes: 3,
		TestSize: 300, Skew: skew, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestClientUpdateWeightedDelta(t *testing.T) {
	spec := logisticSpec()
	m, _ := spec.Build()
	global := make(tensor.Vector, m.NumParams())
	m.ReadParams(global)
	f := fedBlobs(t, 3, 0)

	u, err := ClientUpdate(m, global, f.Users[0], ClientConfig{BatchSize: 10, Epochs: 2, LR: 0.05}, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if u.Weight != float64(len(f.Users[0])) {
		t.Fatalf("weight = %v, want %d", u.Weight, len(f.Users[0]))
	}
	// Δ = n·(w − w_init): recomputing w from Δ must match the model params.
	local := make(tensor.Vector, len(global))
	m.ReadParams(local)
	for i := range global {
		want := global[i] + u.Delta[i]/u.Weight
		if math.Abs(local[i]-want) > 1e-9 {
			t.Fatalf("delta inconsistent at %d: %v vs %v", i, local[i], want)
		}
	}
	if u.Delta.Norm2() == 0 {
		t.Fatal("training should move parameters")
	}
}

func TestClientUpdateErrors(t *testing.T) {
	spec := logisticSpec()
	m, _ := spec.Build()
	global := make(tensor.Vector, m.NumParams())
	exs := []nn.Example{{X: []float64{1, 2, 3, 4}, Y: 0}}

	if _, err := ClientUpdate(m, global[:3], exs, ClientConfig{BatchSize: 1, Epochs: 1, LR: 0.1}, nil); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	if _, err := ClientUpdate(m, global, nil, ClientConfig{BatchSize: 1, Epochs: 1, LR: 0.1}, nil); err == nil {
		t.Fatal("no examples must fail")
	}
	if _, err := ClientUpdate(m, global, exs, ClientConfig{BatchSize: 0, Epochs: 1, LR: 0.1}, nil); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestAccumulatorMatchesManualAverage(t *testing.T) {
	acc := NewAccumulator(2)
	_ = acc.Add(&Update{Delta: tensor.Vector{2, 4}, Weight: 2})  // w=2, delta/w = {1,2}
	_ = acc.Add(&Update{Delta: tensor.Vector{12, 3}, Weight: 3}) // w=3, delta/w = {4,1}
	avg, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	// (2+12)/5, (4+3)/5
	if math.Abs(avg[0]-2.8) > 1e-12 || math.Abs(avg[1]-1.4) > 1e-12 {
		t.Fatalf("avg = %v", avg)
	}
	if acc.Count() != 2 || acc.Weight() != 5 {
		t.Fatalf("count=%d weight=%v", acc.Count(), acc.Weight())
	}
}

func TestAccumulatorErrors(t *testing.T) {
	acc := NewAccumulator(2)
	if _, err := acc.Average(); err == nil {
		t.Fatal("empty accumulator Average must fail")
	}
	if err := acc.Add(&Update{Delta: tensor.Vector{1}, Weight: 1}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	// NaN fails every `w <= 0` comparison, so the guard is `!(w > 0)`-shaped.
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := acc.Add(&Update{Delta: tensor.Vector{1, 2}, Weight: w}); err == nil {
			t.Fatalf("Add weight %v must fail", w)
		}
		if err := acc.AddRaw(tensor.Vector{1, 2}, w, 1); err == nil {
			t.Fatalf("AddRaw weight %v must fail", w)
		}
		if _, err := AccumulatorFromSeal(2, SealedStripe{Sum: tensor.Vector{1, 2}, Weight: w, Count: 1}); err == nil {
			t.Fatalf("AccumulatorFromSeal weight %v must fail", w)
		}
	}
	if acc.Count() != 0 || acc.Weight() != 0 {
		t.Fatalf("refused folds counted: count=%d weight=%v", acc.Count(), acc.Weight())
	}
	if err := acc.AddRaw(tensor.Vector{1}, 1, 1); err == nil {
		t.Fatal("AddRaw dim mismatch must fail")
	}
}

func TestSealedMergeEqualsFlatAccumulation(t *testing.T) {
	// Two-level aggregation (edges' sealed sums → Coordinator) must produce
	// exactly the same result as flat accumulation.
	updates := []*Update{
		{Delta: tensor.Vector{1, 2}, Weight: 1},
		{Delta: tensor.Vector{3, 4}, Weight: 2},
		{Delta: tensor.Vector{5, 6}, Weight: 3},
		{Delta: tensor.Vector{7, 8}, Weight: 4},
	}
	flat := NewAccumulator(2)
	for _, u := range updates {
		_ = flat.Add(u)
	}
	g1 := SealedStripe{Sum: tensor.Vector{1 + 3, 2 + 4}, Weight: 1 + 2, Count: 2}
	g2 := SealedStripe{Sum: tensor.Vector{5 + 7, 6 + 8}, Weight: 3 + 4, Count: 2}
	master := NewAccumulator(2)
	if err := master.AddSealed(g1); err != nil {
		t.Fatal(err)
	}
	if err := master.AddSealed(g2); err != nil {
		t.Fatal(err)
	}
	fa, _ := flat.Average()
	ma, _ := master.Average()
	for i := range fa {
		if math.Abs(fa[i]-ma[i]) > 1e-12 {
			t.Fatalf("hierarchical average %v != flat %v", ma, fa)
		}
	}
	if master.Count() != 4 {
		t.Fatalf("master count = %d", master.Count())
	}
}

func TestApplyDimError(t *testing.T) {
	if err := Apply(tensor.Vector{1}, tensor.Vector{1, 2}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
}

func TestTrainerConvergesOnBlobs(t *testing.T) {
	f := fedBlobs(t, 20, 0.5)
	tr, err := NewTrainer(logisticSpec(), ClientConfig{BatchSize: 10, Epochs: 2, LR: 0.05, Shuffle: true}, 11)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Evaluate(f.Test).Accuracy
	for round := 0; round < 25; round++ {
		if _, err := tr.Round(f.Users); err != nil {
			t.Fatal(err)
		}
	}
	after := tr.Evaluate(f.Test).Accuracy
	if after < 0.9 {
		t.Fatalf("FedAvg accuracy %v -> %v, want ≥0.9", before, after)
	}
	if after <= before {
		t.Fatalf("no improvement: %v -> %v", before, after)
	}
}

func TestTrainerRoundMetadata(t *testing.T) {
	f := fedBlobs(t, 5, 0)
	tr, _ := NewTrainer(logisticSpec(), ClientConfig{BatchSize: 10, Epochs: 1, LR: 0.05}, 1)
	res, err := tr.Round(f.Users)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, u := range f.Users {
		total += len(u)
	}
	if res.Round != 1 || res.Devices != 5 || res.Examples != float64(total) {
		t.Fatalf("round result: %+v", res)
	}
	res2, _ := tr.Round(f.Users)
	if res2.Round != 2 {
		t.Fatalf("round counter = %d", res2.Round)
	}
}

func TestTrainerEmptyRound(t *testing.T) {
	tr, _ := NewTrainer(logisticSpec(), ClientConfig{BatchSize: 1, Epochs: 1, LR: 0.1}, 1)
	if _, err := tr.Round(nil); err == nil {
		t.Fatal("round with no devices must fail")
	}
}

func TestFedAvgMatchesCentralizedOnIID(t *testing.T) {
	// On IID data FedAvg should reach accuracy comparable to centralized
	// SGD on the pooled data — the "matches the performance of a
	// server-trained model" claim, in miniature.
	f := fedBlobs(t, 20, 0)
	var pooled []nn.Example
	for _, u := range f.Users {
		pooled = append(pooled, u...)
	}
	central, err := TrainCentralized(logisticSpec(), pooled, 10, 20, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	centralAcc := central.Evaluate(f.Test).Accuracy

	tr, _ := NewTrainer(logisticSpec(), ClientConfig{BatchSize: 10, Epochs: 2, LR: 0.05, Shuffle: true}, 4)
	for round := 0; round < 30; round++ {
		_, _ = tr.Round(f.Users)
	}
	fedAcc := tr.Evaluate(f.Test).Accuracy
	if fedAcc < centralAcc-0.05 {
		t.Fatalf("FedAvg %v not comparable to centralized %v", fedAcc, centralAcc)
	}
}

func TestTrainCentralizedBadConfig(t *testing.T) {
	if _, err := TrainCentralized(logisticSpec(), nil, 0, 1, 0.1, 1); err == nil {
		t.Fatal("zero epochs must fail")
	}
}

func TestMoreClientsDiminishingReturns(t *testing.T) {
	// Sanity version of the Sec. 9 observation: going from 2 to 10 clients
	// per round helps much more than 10 to 20 on non-IID data.
	f := fedBlobs(t, 40, 0.8)
	accAt := func(k int) float64 {
		tr, _ := NewTrainer(logisticSpec(), ClientConfig{BatchSize: 10, Epochs: 1, LR: 0.05}, 5)
		rng := tensor.NewRNG(99)
		for round := 0; round < 15; round++ {
			perm := rng.Perm(len(f.Users))
			sel := make([][]nn.Example, k)
			for i := 0; i < k; i++ {
				sel[i] = f.Users[perm[i]]
			}
			_, _ = tr.Round(sel)
		}
		return tr.Evaluate(f.Test).Accuracy
	}
	a2, a10 := accAt(2), accAt(10)
	if a10 < a2-0.02 {
		t.Fatalf("more clients should not hurt materially: k=2 %v vs k=10 %v", a2, a10)
	}
}

func TestServerMomentumAccelerates(t *testing.T) {
	// FedAvgM check: on a consistent gradient direction, the momentum
	// server step travels further than plain FedAvg in the same number of
	// rounds (same data, same client config, same seeds).
	fed := fedBlobs(t, 10, 0)
	plain, _ := NewTrainer(spec2(), ClientConfig{BatchSize: 10, Epochs: 1, LR: 0.01}, 3)
	mom, _ := NewTrainer(spec2(), ClientConfig{BatchSize: 10, Epochs: 1, LR: 0.01}, 3)
	mom.ServerMomentum = 0.9
	start := plain.Global.Clone()
	for i := 0; i < 5; i++ {
		if _, err := plain.Round(fed.Users); err != nil {
			t.Fatal(err)
		}
		if _, err := mom.Round(fed.Users); err != nil {
			t.Fatal(err)
		}
	}
	distPlain := tensor.Sub(nil, plain.Global, start).Norm2()
	distMom := tensor.Sub(nil, mom.Global, start).Norm2()
	if distMom <= distPlain {
		t.Fatalf("momentum should travel further on a consistent gradient: %v vs %v", distMom, distPlain)
	}
}

func spec2() nn.Spec {
	return nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1}
}

func TestServerMomentumStillConverges(t *testing.T) {
	fed := fedBlobs(t, 20, 0.5)
	tr, _ := NewTrainer(spec2(), ClientConfig{BatchSize: 10, Epochs: 1, LR: 0.05, Shuffle: true}, 11)
	tr.ServerMomentum = 0.7
	for round := 0; round < 25; round++ {
		if _, err := tr.Round(fed.Users); err != nil {
			t.Fatal(err)
		}
	}
	if acc := tr.Evaluate(fed.Test).Accuracy; acc < 0.9 {
		t.Fatalf("FedAvgM accuracy = %v", acc)
	}
}
