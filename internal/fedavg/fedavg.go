// Package fedavg implements the Federated Averaging algorithm of Appendix B
// (McMahan et al. 2017) plus the FedSGD and centralized-SGD baselines used
// in the paper's comparisons. The package is pure algorithm: the server
// actors call into it, and the simulation harness can run it directly.
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

// Accumulator is the server side of Algorithm 1: the running sums
// w̄ = Σ Δᵏ and n̄ = Σ nᵏ. Updates are folded in online, as they arrive —
// the paper's rebuttal of "you must store updates" (Sec. 10) — so memory is
// O(model), not O(devices).
type Accumulator struct {
	sum    tensor.Vector
	weight float64
	count  int
}

// NewAccumulator returns an accumulator for dim-dimensional updates.
func NewAccumulator(dim int) *Accumulator {
	return &Accumulator{sum: make(tensor.Vector, dim)}
}

// ValidWeight reports whether w can enter a round's sums: positive and
// finite. Written so that NaN fails — one accepted NaN or +Inf weight turns
// n̄, 1/n̄ and every committed parameter after it into NaN.
func ValidWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// Add folds one update in.
func (a *Accumulator) Add(u *Update) error {
	if len(u.Delta) != len(a.sum) {
		return fmt.Errorf("fedavg: update dim %d, accumulator dim %d", len(u.Delta), len(a.sum))
	}
	if !ValidWeight(u.Weight) {
		return fmt.Errorf("fedavg: non-positive or non-finite update weight %v", u.Weight)
	}
	a.sum.Axpy(1, u.Delta)
	a.weight += u.Weight
	a.count++
	return nil
}

// AddRaw folds in an already-summed (delta, weight, count) triple — the
// path used when a Secure Aggregation group delivers a pre-summed result.
func (a *Accumulator) AddRaw(deltaSum tensor.Vector, weight float64, count int) error {
	if len(deltaSum) != len(a.sum) {
		return fmt.Errorf("fedavg: raw dim %d, accumulator dim %d", len(deltaSum), len(a.sum))
	}
	if !ValidWeight(weight) || count <= 0 {
		return fmt.Errorf("fedavg: non-positive or non-finite raw weight %v / count %d", weight, count)
	}
	a.sum.Axpy(1, deltaSum)
	a.weight += weight
	a.count += count
	return nil
}

// Count returns the number of device updates folded in.
func (a *Accumulator) Count() int { return a.count }

// Weight returns n̄, the summed weights.
func (a *Accumulator) Weight() float64 { return a.weight }

// Average returns Δ = w̄/n̄, or an error when nothing was accumulated.
func (a *Accumulator) Average() (tensor.Vector, error) {
	if a.weight <= 0 {
		return nil, fmt.Errorf("fedavg: empty accumulator")
	}
	avg := a.sum.Clone()
	avg.Scale(1 / a.weight)
	return avg, nil
}

// Step returns w_{t+1} = w_t + w̄/n̄, leaving global untouched: Average then
// Apply in one pass and no allocation. The result is written over the
// accumulator's own sum — dead after the step either way — and handed to the
// caller, which makes the vector a round folded into the vector it commits;
// the spent accumulator refuses a second Step and any further fold. The
// explicit conversion rounds the product before the add (no fused
// multiply-add), so the result equals the two-step form bit for bit on every
// GOARCH. A nil accumulator is an empty one.
func (a *Accumulator) Step(global tensor.Vector) (tensor.Vector, error) {
	if a == nil || a.sum == nil || a.weight <= 0 || len(global) != len(a.sum) {
		return nil, fmt.Errorf("fedavg: step over an empty or spent accumulator, or a %d-dim global", len(global))
	}
	next, inv := a.sum[:len(global)], 1/a.weight
	a.sum = nil
	for i, g := range global {
		next[i] = g + float64(next[i]*inv)
	}
	return next, nil
}

// Apply performs the server step w_{t+1} = w_t + Δ in place.
func Apply(global, avgDelta tensor.Vector) error {
	if len(global) != len(avgDelta) {
		return fmt.Errorf("fedavg: apply dim %d vs %d", len(global), len(avgDelta))
	}
	global.Axpy(1, avgDelta)
	return nil
}
