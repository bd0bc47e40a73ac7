// Package fedavg holds the parts of Federated Averaging (Appendix B,
// McMahan et al. 2017) that the system runs: the device's ClientUpdate and
// update clipping, which the device runtime calls, and the server's
// accumulator and sealed stripes, which the round engine folds and commits
// with. It holds no round loop — a round runs on the engine, in one process
// through sim.Train — and, as the Sec. 8 baseline, centralized SGD.
package fedavg

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Update is one device's contribution: the weighted delta Δ = n·(w − w_init)
// and the weight n (the local example count). The weighted form is what the
// algorithm sums and what Secure Aggregation carries ("Note Δ is more
// amenable to compression than w").
type Update struct {
	Delta  tensor.Vector
	Weight float64
	// TrainLoss is the mean training loss observed, reported as a metric.
	TrainLoss float64
}

// ClientConfig is the device portion of the algorithm's hyperparameters.
type ClientConfig struct {
	BatchSize int
	Epochs    int
	LR        float64
	// Shuffle controls whether local data is reshuffled each epoch.
	Shuffle bool
}

// ClientUpdate implements ClientUpdate(w) of Algorithm 1: load the global
// weights, run E epochs of minibatch SGD over the local data, and return the
// weighted update (Δ, n). The model's parameters are clobbered.
func ClientUpdate(model nn.Model, global tensor.Vector, examples []nn.Example, cfg ClientConfig, rng *tensor.RNG) (*Update, error) {
	if len(global) != model.NumParams() {
		return nil, fmt.Errorf("fedavg: global has %d params, model wants %d", len(global), model.NumParams())
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("fedavg: device has no examples")
	}
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("fedavg: invalid client config %+v", cfg)
	}
	model.WriteParams(global)

	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	batch := make([]nn.Example, 0, cfg.BatchSize)
	var lossSum float64
	var lossBatches int
	for e := 0; e < cfg.Epochs; e++ {
		if cfg.Shuffle && rng != nil {
			idx = rng.Perm(len(examples))
		}
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, i := range idx[start:end] {
				batch = append(batch, examples[i])
			}
			lossSum += model.TrainBatch(batch, cfg.LR)
			lossBatches++
		}
	}

	local := make(tensor.Vector, len(global))
	model.ReadParams(local)
	n := float64(len(examples))
	delta := tensor.Sub(nil, local, global)
	delta.Scale(n) // Δ = n·(w − w_init)

	u := &Update{Delta: delta, Weight: n}
	if lossBatches > 0 {
		u.TrainLoss = lossSum / float64(lossBatches)
	}
	return u, nil
}

// ClipUpdate scales the update in place so its per-example average has L2
// norm at most clipNorm (a plan's norm bound, applied on the device). It
// returns true when clipping was applied.
func ClipUpdate(u *Update, clipNorm float64) bool {
	if u.Weight <= 0 {
		return false
	}
	// The weighted delta is n·(w − w_init); the clipped quantity is the
	// unweighted average (w − w_init).
	norm := u.Delta.Norm2() / u.Weight
	if norm <= clipNorm {
		return false
	}
	u.Delta.Scale(clipNorm / norm)
	return true
}

// ValidWeight reports whether w can enter a round's sums: positive and
// finite. Written so that NaN fails — one accepted NaN or +Inf weight turns
// n̄, 1/n̄ and every committed parameter after it into NaN.
func ValidWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// TrainCentralized is the datacenter baseline: plain minibatch SGD over the
// pooled dataset, used for the Sec. 8 "matches the performance of a
// server-trained" comparison. It returns the trained model.
func TrainCentralized(spec nn.Spec, examples []nn.Example, epochs, batchSize int, lr float64, seed uint64) (nn.Model, error) {
	if batchSize <= 0 || epochs <= 0 {
		return nil, fmt.Errorf("fedavg: invalid centralized config")
	}
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	for e := 0; e < epochs; e++ {
		idx := rng.Perm(len(examples))
		batch := make([]nn.Example, 0, batchSize)
		for start := 0; start < len(idx); start += batchSize {
			end := start + batchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, i := range idx[start:end] {
				batch = append(batch, examples[i])
			}
			m.TrainBatch(batch, lr)
		}
	}
	return m, nil
}
