package robust

import (
	"fmt"

	"repro/internal/fedavg"
	"repro/internal/tensor"
)

// Buffer is the server's one per-device retention, the counterpart of a
// fedavg.PartialAccumulator stripe over the same fedavg.Intake — one
// window, one eval count, one metric tally, one ErrPartialClosed: where a
// stripe folds each report into a running sum at the edge, two reducers
// must see every individual update at finalize, so the report readers
// decode into vectors taken from the edge's fedavg.Spares and park them
// here. A per-update robust policy (trimmed mean, median, cosine outlier)
// has one Buffer for the whole round (its order statistics run over the
// full cohort — striping it would change the answer); each Secure
// Aggregation group has its own, of delta‖weight vectors, for its secagg
// run. The decode happens outside the lock, so the critical section is an
// append.
type Buffer struct {
	fedavg.Intake
	dim     int
	spares  *fedavg.Spares
	updates []Update
}

// NewBuffer returns a retention buffer for dim-dimensional updates that
// decodes into vectors from spares (nil allocates each one).
func NewBuffer(dim int, spares *fedavg.Spares) *Buffer {
	return &Buffer{dim: dim, spares: spares}
}

// Add decodes one device's update into a spare vector (decode is called
// with a zeroed dim-length vector, outside the buffer lock — typically
// checkpoint.Meta.DecodeParams) and retains it for the finalize reduce.
// Returns fedavg.ErrPartialClosed once the reporting window has closed.
func (b *Buffer) Add(device string, weight float64, metrics map[string]float64, decode func(dst tensor.Vector) error) error {
	if !fedavg.ValidWeight(weight) {
		return fmt.Errorf("robust: non-positive or non-finite update weight %v", weight)
	}
	vec := b.spares.Take(b.dim)
	err := decode(vec)
	if err == nil {
		err = b.Admit(metrics, func() error {
			b.updates = append(b.updates, Update{Device: device, Weight: weight, Delta: vec})
			return nil
		})
	}
	if err != nil {
		b.spares.Put(vec)
	}
	return err
}

// Drain closes the buffer (if not already closed) and hands off its
// contents for the finalize reduce. Release gives the update vectors back
// once the reduce no longer needs them.
func (b *Buffer) Drain() (updates []Update, evalCount int, metrics map[string][]float64) {
	_, evalCount, metrics = b.Seal()
	return b.updates, evalCount, metrics
}

// Release puts drained update vectors back into the buffer's stock. Reduce
// results never alias them, so this is safe immediately after the reduce.
func (b *Buffer) Release(updates []Update) {
	for i := range updates {
		b.spares.Put(updates[i].Delta)
		updates[i].Delta = nil
	}
}
