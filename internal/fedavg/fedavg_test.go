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
	if acc.count != 2 || acc.weight != 5 {
		t.Fatalf("count=%d weight=%v", acc.count, acc.weight)
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
	if acc.count != 0 || acc.weight != 0 {
		t.Fatalf("refused folds counted: count=%d weight=%v", acc.count, acc.weight)
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
	if master.count != 4 {
		t.Fatalf("master count = %d", master.count)
	}
}

func TestApplyDimError(t *testing.T) {
	if err := Apply(tensor.Vector{1}, tensor.Vector{1, 2}); err == nil {
		t.Fatal("dim mismatch must fail")
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

	fedAcc := fedAvg(t, f, 30, len(f.Users), ClientConfig{BatchSize: 10, Epochs: 2, LR: 0.05, Shuffle: true}, nil)
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
		return fedAvg(t, f, 15, k, ClientConfig{BatchSize: 10, Epochs: 1, LR: 0.05}, nil)
	}
	a2, a10 := accAt(2), accAt(10)
	if a10 < a2-0.02 {
		t.Fatalf("more clients should not hurt materially: k=2 %v vs k=10 %v", a2, a10)
	}
}

func TestClipUpdateBoundsNorm(t *testing.T) {
	// Per-example average has norm 5 (weight 2, delta norm 10); clip to 1.
	u := &Update{Delta: tensor.Vector{6, 8}, Weight: 2}
	if !ClipUpdate(u, 1) {
		t.Fatal("should have clipped")
	}
	if got := u.Delta.Norm2() / u.Weight; math.Abs(got-1) > 1e-12 {
		t.Fatalf("clipped average norm = %v, want 1", got)
	}
	// Direction preserved.
	if u.Delta[0] <= 0 || u.Delta[1] <= 0 || math.Abs(u.Delta[1]/u.Delta[0]-8.0/6.0) > 1e-9 {
		t.Fatalf("clipping changed direction: %v", u.Delta)
	}
}

func TestClipUpdateNoopWhenSmall(t *testing.T) {
	u := &Update{Delta: tensor.Vector{0.1, 0}, Weight: 1}
	if ClipUpdate(u, 1) {
		t.Fatal("small update must not be clipped")
	}
	if u.Delta[0] != 0.1 {
		t.Fatal("no-op clip changed the update")
	}
	bad := &Update{Delta: tensor.Vector{1}, Weight: 0}
	if ClipUpdate(bad, 1) {
		t.Fatal("zero-weight update cannot be clipped")
	}
}

func TestQuantizedUpdatesConvergeLikeFull(t *testing.T) {
	// Sec. 11 Bandwidth: 8-bit quantized updates (as used on the wire)
	// should barely affect convergence. Simulate the wire round-trip by
	// quantizing each device delta through the checkpoint codec range
	// logic: scale to 8-bit resolution of its own range.
	fed := fedBlobs(t, 15, 0.3)
	quantize := func(u *Update) {
		lo, hi := u.Delta[0], u.Delta[0]
		for _, v := range u.Delta {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi == lo {
			return
		}
		step := (hi - lo) / 255
		for i, v := range u.Delta {
			q := math.Round((v - lo) / step)
			u.Delta[i] = lo + q*step
		}
	}

	client := ClientConfig{BatchSize: 10, Epochs: 1, LR: 0.05, Shuffle: true}
	full := fedAvg(t, fed, 20, len(fed.Users), client, nil)
	quant := fedAvg(t, fed, 20, len(fed.Users), client, quantize)
	if quant < full-0.03 {
		t.Fatalf("quantized convergence %v much worse than full %v", quant, full)
	}
}

// fedAvg runs rounds of Algorithm 1 out of this package's parts — k users
// drawn per round, ClientUpdate on each, the accumulator's Step — with
// every update passed through edit when it is set, and returns the test
// accuracy. The system's rounds run on the round engine (sim.Train); this
// checks the parts.
func fedAvg(t *testing.T, f *data.Federated, rounds, k int, client ClientConfig, edit func(*Update)) float64 {
	t.Helper()
	m, _ := logisticSpec().Build()
	global := make(tensor.Vector, m.NumParams())
	m.ReadParams(global)
	rng := tensor.NewRNG(9)
	for round := 0; round < rounds; round++ {
		acc := NewAccumulator(len(global))
		for i, user := range rng.Perm(len(f.Users))[:k] {
			u, err := ClientUpdate(m, global, f.Users[user], client, rng.Derive(uint64(round*100+i)))
			if err != nil {
				t.Fatal(err)
			}
			if edit != nil {
				edit(u)
			}
			if err := acc.Add(u); err != nil {
				t.Fatal(err)
			}
		}
		next, _, err := acc.Step(global)
		if err != nil {
			t.Fatal(err)
		}
		global = next
	}
	m.WriteParams(global)
	return m.Evaluate(f.Test).Accuracy
}
