package robust

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fedavg"
	"repro/internal/tensor"
)

// ErrBufferClosed is returned by a Buffer once the round's reporting
// window has closed — the mirror of fedavg.ErrPartialClosed for the
// retention path, so a late report is refused rather than silently lost.
var ErrBufferClosed = errors.New("robust: buffer closed")

// Buffer is the server's one per-device retention, the counterpart of a
// fedavg.PartialAccumulator stripe: where a stripe folds each report into
// a running sum at the edge, two reducers must see every individual update
// at finalize, so the report readers decode into pooled vectors and park
// them here. A per-update robust policy (trimmed mean, median, cosine
// outlier) has one Buffer for the whole round (its order statistics run
// over the full cohort — striping it would change the answer); each Secure
// Aggregation group has its own, of delta‖weight vectors, for its secagg
// run. The decode happens outside the lock, so the critical section is a
// pointer append.
type Buffer struct {
	mu        sync.Mutex
	closed    bool
	dim       int
	updates   []Update
	evalCount int
	metrics   map[string][]float64
}

// NewBuffer returns a retention buffer for dim-dimensional updates.
func NewBuffer(dim int) *Buffer {
	return &Buffer{dim: dim}
}

// Add decodes one device's update into a pooled vector (decode is called
// with a zeroed dim-length buffer, outside the buffer lock — typically
// checkpoint.Meta.DecodeParams) and retains it for the finalize reduce.
// Returns ErrBufferClosed once the reporting window has closed.
func (b *Buffer) Add(device string, weight float64, metrics map[string]float64, decode func(dst tensor.Vector) error) error {
	if !fedavg.ValidWeight(weight) {
		return fmt.Errorf("robust: non-positive or non-finite update weight %v", weight)
	}
	vec := vecPool.Get(b.dim)
	vec.Zero()
	if err := decode(*vec); err != nil {
		vecPool.Put(vec)
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		vecPool.Put(vec)
		return ErrBufferClosed
	}
	b.updates = append(b.updates, Update{Device: device, Weight: weight, Delta: *vec, pooled: vec})
	b.addMetricsLocked(metrics)
	return nil
}

// AddEval folds a metrics-only (evaluation) report in.
func (b *Buffer) AddEval(metrics map[string]float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBufferClosed
	}
	b.evalCount++
	b.addMetricsLocked(metrics)
	return nil
}

func (b *Buffer) addMetricsLocked(metrics map[string]float64) {
	if len(metrics) == 0 {
		return
	}
	if b.metrics == nil {
		b.metrics = make(map[string][]float64)
	}
	for name, v := range metrics {
		b.metrics[name] = append(b.metrics[name], v)
	}
}

// Reports returns how many reports (updates plus metrics-only) have been
// buffered so far. Safe to call while adds are in flight.
func (b *Buffer) Reports() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.updates) + b.evalCount
}

// Close seals the buffer: subsequent adds return ErrBufferClosed.
func (b *Buffer) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// Drain closes the buffer (if not already closed) and hands off its
// contents for the finalize reduce. The update vectors are pooled: call
// Release once the reduce no longer needs them.
func (b *Buffer) Drain() (updates []Update, evalCount int, metrics map[string][]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return b.updates, b.evalCount, b.metrics
}

// Release returns drained update vectors to the pool. Reduce results
// never alias them, so this is safe immediately after the reduce.
func Release(updates []Update) {
	for i := range updates {
		if p := updates[i].pooled; p != nil {
			vecPool.Put(p)
		}
		updates[i].Delta, updates[i].pooled = nil, nil
	}
}

// vecPool recycles decode buffers across rounds: steady-state retention
// rounds allocate no O(dim) vectors per report. Update.pooled carries the
// pointers back.
var vecPool tensor.VectorPool
