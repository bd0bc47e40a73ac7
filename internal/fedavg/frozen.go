package fedavg

import (
	"fmt"

	"repro/internal/tensor"
)

// This file is kept for benchmark/ until ROADMAP 14: the float64 way into
// the round sum that benchmark/replay.go times and its tests check against,
// and the plain forms of the stripe and sealed-sum codecs. No product file
// calls a name declared here (TestBenchmarkSurface checks it): the round
// engine folds with AccumulatorFromSeal, AddSealed and Step, and takes its
// vectors from a Spares.

// NewAccumulator returns an empty accumulator for dim-dimensional updates.
func NewAccumulator(dim int) *Accumulator { return &Accumulator{sum: make(tensor.Vector, dim)} }

// Add folds one update in.
func (a *Accumulator) Add(u *Update) error { return a.AddRaw(u.Delta, u.Weight, 1) }

// AddRaw folds in an already-summed (delta, weight, count) triple.
func (a *Accumulator) AddRaw(deltaSum tensor.Vector, weight float64, count int) error {
	if count <= 0 {
		return fmt.Errorf("fedavg: raw count %d", count)
	}
	return a.AddSealed(SealedStripe{Sum: deltaSum, Weight: weight, Count: count})
}

// Average returns Δ = w̄/n̄, or an error when nothing was accumulated.
func (a *Accumulator) Average() (tensor.Vector, error) {
	if a.weight <= 0 {
		return nil, fmt.Errorf("fedavg: empty accumulator")
	}
	avg := a.sum.Clone()
	avg.Scale(1 / a.weight)
	return avg, nil
}

// Apply performs the server step w_{t+1} = w_t + Δ in place.
func Apply(global, avgDelta tensor.Vector) error {
	if len(global) != len(avgDelta) {
		return fmt.Errorf("fedavg: apply dim %d vs %d", len(global), len(avgDelta))
	}
	global.Axpy(1, avgDelta)
	return nil
}

// NewPartial returns a stripe for dim-dimensional updates over a fresh
// vector.
func NewPartial(dim int) *PartialAccumulator { return (*Spares)(nil).NewPartial(dim) }

// MarshalSum is MarshalSumInto a fresh buffer.
func MarshalSum(v tensor.Vector) []byte { return MarshalSumInto(v, nil) }

// UnmarshalSum decodes a MarshalSum buffer into a fresh vector.
func UnmarshalSum(b []byte) (tensor.Vector, error) { return (*Spares)(nil).UnmarshalSum(b) }
