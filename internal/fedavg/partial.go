package fedavg

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// ErrPartialClosed is returned by a PartialAccumulator once the round's
// reporting window has closed: the stripe has been (or is about to be)
// merged, so a late fold must be refused rather than silently lost.
var ErrPartialClosed = errors.New("fedavg: partial accumulator closed")

// PartialAccumulator is one stripe of a striped round accumulator: a
// mutex-guarded Accumulator (plus the per-device metrics and eval counts
// that ride along with updates) that many connection-reader goroutines fold
// into concurrently — decode-and-accumulate at the edge. A round keeps
// GOMAXPROCS stripes, each reader picks one round-robin, and at
// finalization the stripes are closed and merged down the aggregation tree.
// Because readers fold straight into the stripe, the per-device hot loop
// performs no O(dim) allocation and no O(dim) message hop.
//
// Note the floating-point caveat: which stripe a device lands on — and the
// order of folds within a stripe — depends on goroutine scheduling, so the
// merged sum can differ from a serial fold in the last few ulps across
// runs. Consumers compare committed checkpoints with a tolerance.
type PartialAccumulator struct {
	mu     sync.Mutex
	closed bool
	acc    *Accumulator
	// evalCount counts metrics-only folds (evaluation reports).
	evalCount int
	metrics   map[string][]float64
}

// NewPartial returns a stripe for dim-dimensional updates.
func NewPartial(dim int) *PartialAccumulator {
	return &PartialAccumulator{acc: NewAccumulator(dim)}
}

// Accumulate folds one device's weighted update in: fold is called with the
// stripe's raw sum vector under the stripe lock and must add the device's
// delta into it — typically checkpoint.Meta.AccumulateParams, which
// dequantizes wire bytes straight into the sum with no intermediate vector.
// fold must either apply fully or leave the sum untouched on error.
// Returns ErrPartialClosed once the stripe has been closed.
func (p *PartialAccumulator) Accumulate(weight float64, metrics map[string]float64, fold func(sum tensor.Vector) error) error {
	if !ValidWeight(weight) {
		return fmt.Errorf("fedavg: non-positive or non-finite update weight %v", weight)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPartialClosed
	}
	if err := fold(p.acc.sum); err != nil {
		return err
	}
	p.acc.weight += weight
	p.acc.count++
	p.addMetricsLocked(metrics)
	return nil
}

// AddEval folds a metrics-only (evaluation) report in.
func (p *PartialAccumulator) AddEval(metrics map[string]float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPartialClosed
	}
	p.evalCount++
	p.addMetricsLocked(metrics)
	return nil
}

func (p *PartialAccumulator) addMetricsLocked(metrics map[string]float64) {
	if len(metrics) == 0 {
		return
	}
	if p.metrics == nil {
		p.metrics = make(map[string][]float64)
	}
	for name, v := range metrics {
		p.metrics[name] = append(p.metrics[name], v)
	}
}

// Reports returns how many reports (updates plus metrics-only) have been
// folded in so far. Safe to call while folds are in flight.
func (p *PartialAccumulator) Reports() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acc.count + p.evalCount
}

// Close seals the stripe: subsequent folds return ErrPartialClosed. Closing
// under the stripe lock gives Drain a happens-before edge over every fold
// that succeeded.
func (p *PartialAccumulator) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// Drain closes the stripe (if not already closed) and returns its contents
// for merging: the raw delta sum, the summed weight, the update count, the
// metrics-only count, and the metric values. The stripe must not be used
// again; the returned slices are handed off, not copied.
func (p *PartialAccumulator) Drain() (sum tensor.Vector, weight float64, count, evalCount int, metrics map[string][]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	return p.acc.sum, p.acc.weight, p.acc.count, p.evalCount, p.metrics
}
