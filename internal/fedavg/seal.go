package fedavg

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// SealedStripe is the merge-ready form of a round's drained
// PartialAccumulator stripes: the raw delta sum, the summed weight, the
// update and eval counts, and the per-metric device samples. A selector
// shard seals its stripes into one of these at round finalize and ships it
// upstream (protocol.StripeSeal carries the marshaled form); the
// coordinator folds sealed stripes from every shard into the global
// Accumulator. Sealing commutes with merging: folding devices into stripes
// per shard and then merging sealed stripes yields the same sums (up to
// float association) as folding every device into one accumulator.
type SealedStripe struct {
	// Sum is the raw delta sum; nil when Count is zero.
	Sum tensor.Vector
	// Spares is the stock Sum came from, which AddSealed puts it back into;
	// nil when no stock keeps it.
	Spares *Spares
	Weight float64
	// Count is the number of device updates folded in; EvalCount the number
	// of metrics-only (evaluation) reports.
	Count     int
	EvalCount int
	// Metrics are the device-reported metric samples, keyed by name.
	Metrics map[string][]float64
}

// SealStripes drains every stripe and merges them into one SealedStripe
// (the shard-local reduction step of the aggregation tree). The stripes
// must share the accumulator dimension; they are closed and must not be
// used again. The first stripe holding updates gives the seal its vector
// and Spares; every other stripe's vector is dead once merged (or never
// used) and goes back to the Spares it came from.
func SealStripes(stripes []*PartialAccumulator) (SealedStripe, error) {
	var out SealedStripe
	for _, st := range stripes {
		sum, weight, count, evalCount, metrics := st.Drain()
		out.EvalCount += evalCount
		for name, vs := range metrics {
			if out.Metrics == nil {
				out.Metrics = make(map[string][]float64)
			}
			out.Metrics[name] = append(out.Metrics[name], vs...)
		}
		if count == 0 {
			st.spares.Put(sum)
			continue
		}
		if out.Sum == nil {
			out.Sum, out.Spares = sum, st.spares
		} else {
			if len(sum) != len(out.Sum) {
				return out, fmt.Errorf("fedavg: seal stripe dim %d vs %d", len(sum), len(out.Sum))
			}
			out.Sum.Axpy(1, sum)
			st.spares.Put(sum)
		}
		out.Weight += weight
		out.Count += count
	}
	return out, nil
}

// Accumulator is the server side of Algorithm 1: the running sums
// w̄ = Σ Δᵏ and n̄ = Σ nᵏ. Sealed sums are folded in online, as they arrive —
// the paper's rebuttal of "you must store updates" (Sec. 10) — so memory is
// O(model), not O(devices). A round starts one from its first seal
// (AccumulatorFromSeal), adds the rest (AddSealed) and steps it into the
// next global model (Step).
type Accumulator struct {
	sum    tensor.Vector
	weight float64
	count  int
}

// AccumulatorFromSeal returns a dim-dimensional accumulator that starts as
// the sealed stripe s. It adopts s.Sum — the caller hands the vector over —
// instead of zeroing a fresh one and adding s.Sum into it, the way
// SealStripes adopts its first stripe. The vector becomes the committed
// checkpoint (Step) and never goes back to s.Spares, which writes it off; a
// refused seal's vector goes back there at once.
func AccumulatorFromSeal(dim int, s SealedStripe) (*Accumulator, error) {
	if len(s.Sum) != dim || !ValidWeight(s.Weight) || s.Count <= 0 {
		s.Spares.Put(s.Sum)
		return nil, fmt.Errorf("fedavg: sealed dim %d (want %d), weight %v, count %d", len(s.Sum), dim, s.Weight, s.Count)
	}
	s.Spares.adopted()
	return &Accumulator{sum: s.Sum, weight: s.Weight, count: s.Count}, nil
}

// AddSealed folds a sealed stripe's update sum into the accumulator and
// then puts the sum's vector, zeroed, back into s.Spares, folded or refused:
// the caller hands it over, as it hands AccumulatorFromSeal the vector that
// function keeps. A stripe with no updates (eval-only or empty) adds nothing
// here — its eval count and metrics are merged by the caller, which owns the
// round's metric tally.
func (a *Accumulator) AddSealed(s SealedStripe) error {
	defer s.Spares.Put(s.Sum)
	if s.Count == 0 {
		return nil
	}
	if len(s.Sum) != len(a.sum) || !ValidWeight(s.Weight) || s.Count < 0 {
		return fmt.Errorf("fedavg: sealed dim %d (accumulator %d), weight %v, count %d", len(s.Sum), len(a.sum), s.Weight, s.Count)
	}
	a.sum.Axpy(1, s.Sum)
	a.weight += s.Weight
	a.count += s.Count
	return nil
}

// Step returns w_{t+1} = w_t + w̄/n̄ and n̄, leaving global untouched. The
// result is written over the accumulator's own sum — dead after the step
// either way — and handed to the caller, which makes the vector a round
// folded into the vector it commits; the spent accumulator refuses a second
// Step and any further fold. The explicit conversion rounds the product
// before the add (no fused multiply-add), so the result equals averaging
// and then adding bit for bit on every GOARCH. A nil accumulator is an empty
// one.
func (a *Accumulator) Step(global tensor.Vector) (tensor.Vector, float64, error) {
	if a == nil || a.sum == nil || a.weight <= 0 || len(global) != len(a.sum) {
		return nil, 0, fmt.Errorf("fedavg: step over an empty or spent accumulator, or a %d-dim global", len(global))
	}
	next, inv := a.sum[:len(global)], 1/a.weight
	a.sum = nil
	for i, g := range global {
		next[i] = g + float64(next[i]*inv)
	}
	return next, a.weight, nil
}

// MarshalSumInto encodes a raw delta sum for the wire into get(n), n bytes
// the caller owns (a fresh buffer for a nil get): a uvarint count, then the
// big-endian float64 elements — the element section of a float64
// checkpoint, so one vector layout crosses both the device and shard links.
func MarshalSumInto(v tensor.Vector, get func(n int) []byte) []byte {
	n := len(v)
	var c wire.Codec
	walkSum(&c, &n)
	c.EncodeInto(get)
	v.PutBE(walkSum(&c, &n))
	return c.Encoded()
}

// UnmarshalSum decodes a MarshalSumInto buffer into a spare vector (Take); a
// SealedStripe carrying it names s as its Spares. The element count is
// validated against the buffer length before the stock is touched or
// anything allocated, so a hostile count cannot commit memory beyond the
// bytes actually received.
func (s *Spares) UnmarshalSum(b []byte) (tensor.Vector, error) {
	var n int
	c := wire.Decoder(b)
	elems := walkSum(&c, &n)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("fedavg: sealed sum: %w", err)
	}
	v := s.Take(n)
	v.SetBE(elems)
	return v, nil
}

// walkSum runs a sealed sum of *n elements and returns their section.
func walkSum(c *wire.Codec, n *int) []byte {
	c.Count(n, 8)
	return c.Raw(8 * *n)
}
