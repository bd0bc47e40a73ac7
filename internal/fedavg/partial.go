package fedavg

import (
	"errors"
	"fmt"
	"runtime"
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
	// spares is where SealStripes returns the vector once merged away; nil
	// for a bare NewPartial.
	spares *Spares
	// evalCount counts metrics-only folds (evaluation reports).
	evalCount int
	metrics   map[string][]float64
}

// NewPartial returns a stripe for dim-dimensional updates.
func NewPartial(dim int) *PartialAccumulator { return (*Spares)(nil).NewPartial(dim) }

// Spares is one edge's stock of spare stripe vectors. All of a round's
// stripes die at its seal but the one whose vector is adopted — as the
// edge's sealed sum, then the Coordinator's accumulator, finally the
// committed checkpoint's Params (Accumulator.Step) — so the edge keeps the
// others for its next round instead of allocating GOMAXPROCS model-sized
// vectors a round to keep one. The stock also takes seal sums: a sealed
// sum that the Coordinator adds rather than adopts goes back to where it
// came from in AddSealed — an edge's stock, or the one a coordinator
// process decodes its shards' sums into (UnmarshalSum). A field of its
// owner, not a sync.Pool, whose GC-driven flushes would make a round's
// allocation depend on GC timing. A nil *Spares keeps nothing.
type Spares struct {
	mu   sync.Mutex
	free []tensor.Vector
}

// NewPartial returns a stripe for dim-dimensional updates over a spare
// vector (take).
func (s *Spares) NewPartial(dim int) *PartialAccumulator {
	return &PartialAccumulator{acc: &Accumulator{sum: s.take(dim)}, spares: s}
}

// take returns a zero spare vector of dim elements (one of another
// dimension is dropped: the model changed), or a fresh one. An empty
// vector — an eval-only seal's sum — takes nothing from the stock.
func (s *Spares) take(dim int) tensor.Vector {
	var v tensor.Vector
	if s != nil && dim > 0 {
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			v, s.free[n-1] = s.free[n-1], nil
			s.free = s.free[:n-1]
		}
		s.mu.Unlock()
	}
	if len(v) != dim {
		v = make(tensor.Vector, dim)
	}
	return v
}

// Put hands the stock a vector nothing references any more — a stripe merged
// into another, a sealed sum already marshaled for the wire — and zeroes it
// here, while its round settles, not on the next round's way to its first
// device. The stock holds one round's stripes and drops the rest: rounds
// that give without taking (a secure round's group sums) cannot grow it.
func (s *Spares) Put(v tensor.Vector) {
	if s == nil || len(v) == 0 {
		return
	}
	v.Zero()
	s.mu.Lock()
	if len(s.free) < runtime.GOMAXPROCS(0) {
		s.free = append(s.free, v)
	}
	s.mu.Unlock()
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
// again; the returned slices are handed off, not copied — the stripe lets go
// of the vector, so whoever recycles it next shares it with nobody.
func (p *PartialAccumulator) Drain() (sum tensor.Vector, weight float64, count, evalCount int, metrics map[string][]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	sum, p.acc.sum = p.acc.sum, nil
	return sum, p.acc.weight, p.acc.count, p.evalCount, p.metrics
}
