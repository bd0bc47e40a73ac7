package fedavg

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// ErrPartialClosed is returned by a round intake — a PartialAccumulator
// stripe or a robust.Buffer — once the round's reporting window has closed:
// the stripe has been (or is about to be) merged, the buffer reduced, so a
// late report must be refused rather than silently lost.
var ErrPartialClosed = errors.New("fedavg: partial accumulator closed")

// Intake is the reporting window every round intake shares: the lock, the
// closed window, the update and eval counts and the metric tally. A stripe
// (PartialAccumulator) adds a sum each report folds into; a robust.Buffer
// adds the decoded updates it retains. Each embeds an Intake and changes
// its own state only inside Admit.
type Intake struct {
	mu                 sync.Mutex
	closed             bool
	updates, evalCount int
	metrics            map[string][]float64
}

// Admit runs add — the owner's part of one update report — under the
// intake lock and tallies the report's metrics, or returns ErrPartialClosed
// once the window has closed. add must either apply fully or change nothing
// and return its error.
func (in *Intake) Admit(metrics map[string]float64, add func() error) error {
	return in.admit(&in.updates, metrics, add)
}

// AddEval admits a metrics-only (evaluation) report.
func (in *Intake) AddEval(metrics map[string]float64) error {
	return in.admit(&in.evalCount, metrics, func() error { return nil })
}

func (in *Intake) admit(count *int, metrics map[string]float64, add func() error) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrPartialClosed
	}
	if err := add(); err != nil {
		return err
	}
	*count++
	for name, v := range metrics {
		if in.metrics == nil {
			in.metrics = make(map[string][]float64)
		}
		in.metrics[name] = append(in.metrics[name], v)
	}
	return nil
}

// Reports returns how many reports (updates plus metrics-only) have been
// admitted so far. Safe to call while reports are in flight.
func (in *Intake) Reports() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.updates + in.evalCount
}

// Close ends the window: subsequent reports get ErrPartialClosed.
func (in *Intake) Close() { in.Seal() }

// Seal closes the window (if not already closed) and hands off its tally.
// Closing under the lock gives the caller a happens-before edge over every
// report admitted, and no report changes the owner's state after it: what
// the owner keeps beside its Intake is whole, and the caller's to read.
func (in *Intake) Seal() (updates, evalCount int, metrics map[string][]float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	return in.updates, in.evalCount, in.metrics
}

// PartialAccumulator is one stripe of a striped round accumulator: a raw
// delta sum behind an Intake that many connection-reader goroutines fold
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
	Intake
	sum    tensor.Vector
	weight float64
	// spares is where SealStripes returns the vector once merged away; nil
	// keeps nothing.
	spares *Spares
}

// Spares is one edge's stock of spare round vectors: its stripes, the
// updates its retention buffers (robust.Buffer) decode into, and seal sums.
// All of a round's stripes die at its seal but the one whose vector is
// adopted — as the edge's sealed sum, then the Coordinator's accumulator,
// finally the committed checkpoint's Params (Accumulator.Step) — and a
// buffer's updates die at its group's reduce, so the edge keeps them for its
// next round instead of allocating a model-sized vector per stripe or
// retained report a round. The adopted vector's loan is repaid by the model
// it supersedes, once the next commit supersedes that one (Accumulator.Repay),
// so after two rounds a round's vectors are all recycled. The stock also
// takes seal sums: a sealed sum that the Coordinator adds rather than adopts
// goes back to where it came from in AddSealed — an edge's stock, or the one
// a coordinator process decodes its shards' sums into (UnmarshalSum). A field
// of its owner, not a sync.Pool, whose GC-driven flushes would make a round's
// allocation depend on GC timing. Every Take is repaid by exactly one Put,
// and the stock holds at most as many vectors as it has lent and not had
// back, so it follows demand — one round's stripes, a secure round's K
// updates — and a giver that never took from it cannot grow it. A nil
// *Spares keeps nothing.
type Spares struct {
	mu   sync.Mutex
	free []tensor.Vector
	// lent counts the vectors Take handed out that are not yet repaid (Put).
	lent int
}

// NewPartial returns a stripe for dim-dimensional updates over a spare
// vector (Take).
func (s *Spares) NewPartial(dim int) *PartialAccumulator {
	return &PartialAccumulator{sum: s.Take(dim), spares: s}
}

// Take lends a zero vector of dim elements: a spare (one of another
// dimension is dropped: the model changed), or a fresh one. An empty
// vector — an eval-only seal's sum — takes nothing from the stock.
func (s *Spares) Take(dim int) tensor.Vector {
	var v tensor.Vector
	if s != nil && dim > 0 {
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			v, s.free[n-1] = s.free[n-1], nil
			s.free = s.free[:n-1]
		}
		s.lent++
		s.mu.Unlock()
	}
	if len(v) != dim {
		v = make(tensor.Vector, dim)
	}
	return v
}

// Put hands the stock a vector nothing references any more — a stripe merged
// into another, a sealed sum already marshaled for the wire, an update its
// group has reduced — and zeroes it here, while its round settles, not on
// the next round's way to its first device. It keeps the vector at its full
// capacity: a secure group's sum is a delta-plus-weight vector of dim+1
// whose first dim elements are committed, so the committed model repays the
// loan as the vector that was lent. The stock keeps it only against a loan
// not yet repaid and drops the rest.
func (s *Spares) Put(v tensor.Vector) {
	if s == nil || len(v) == 0 {
		return
	}
	v = v[:cap(v)]
	v.Zero()
	s.mu.Lock()
	if s.lent > 0 {
		s.lent--
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
	return p.Admit(metrics, func() error {
		if err := fold(p.sum); err != nil {
			return err
		}
		p.weight += weight
		return nil
	})
}

// Drain closes the stripe (if not already closed) and returns its contents
// for merging: the raw delta sum, the summed weight, the update count, the
// metrics-only count, and the metric values. The stripe must not be used
// again; the returned slices are handed off, not copied — the stripe lets go
// of the vector, so whoever recycles it next shares it with nobody.
func (p *PartialAccumulator) Drain() (sum tensor.Vector, weight float64, count, evalCount int, metrics map[string][]float64) {
	count, evalCount, metrics = p.Seal()
	sum, p.sum = p.sum, nil
	return sum, p.weight, count, evalCount, metrics
}
