package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/tensor"
)

// roundParams is the update every stub reports in the round that serves
// checkpoint `round`, and (stream 0) the initial model. Values are multiples
// of 1/64 in [-1, 1]: sums of them are exact in float64 and in Secure
// Aggregation's 2^-20 fixed point, so the committed model has a closed form.
func roundParams(seed uint64, round int64, dim int) tensor.Vector {
	rng := tensor.NewRNG(seed).Derive(uint64(round) + 1)
	v := make(tensor.Vector, dim)
	for i := range v {
		v[i] = float64(rng.Intn(129)-64) / 64
	}
	return v
}

func initialCheckpoint(seed uint64, dim int) *checkpoint.Checkpoint {
	return &checkpoint.Checkpoint{TaskName: taskID, Round: 0, Params: roundParams(seed, -1, dim)}
}

func marshalUpdate(seed uint64, round int64, dim int, enc checkpoint.Encoding) ([]byte, error) {
	return encodeUpdate(round, roundParams(seed, round, dim), enc)
}

func encodeUpdate(round int64, params tensor.Vector, enc checkpoint.Encoding) ([]byte, error) {
	c := &checkpoint.Checkpoint{TaskName: taskID, Round: round, Weight: updateWeight, Params: params}
	return c.Marshal(enc)
}

// payloads hands every stub of a round the same marshaled update: the
// generator's cost is one build per round, not one per device.
type payloads struct {
	seed uint64
	dim  int
	enc  checkpoint.Encoding

	mu    sync.Mutex
	cache map[int64][]byte
	// buildNanos is the generator's own CPU-bound work, reported as part of
	// driver.self_ms_per_round.
	buildNanos atomic.Int64
}

func newPayloads(seed uint64, dim int, enc checkpoint.Encoding) *payloads {
	return &payloads{seed: seed, dim: dim, enc: enc, cache: make(map[int64][]byte)}
}

func (p *payloads) forRound(round int64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.cache[round]; ok {
		return b, nil
	}
	start := time.Now()
	b, err := marshalUpdate(p.seed, round, p.dim, p.enc)
	if err != nil {
		return nil, err
	}
	p.cache[round] = b
	// Rounds are served in order; anything two rounds back is finished.
	delete(p.cache, round-2)
	p.buildNanos.Add(time.Since(start).Nanoseconds())
	return b, nil
}

// expectedModel is the closed form of the checkpoint committed after
// `rounds` rounds: every report of a round carries the same update u_r with
// the same weight w, so the weighted mean is u_r/w whatever the report
// count, and the model is init + Σ u_r/w. `want` sums the updates as the
// wire encoding delivers them (decoded by checkpoint.Unmarshal, a different
// path from the server's fused fold); `exact` sums the values before
// encoding, and `slack` bounds their distance by the quantizer's half step.
func expectedModel(seed uint64, dim int, enc checkpoint.Encoding, rounds int64) (want, exact tensor.Vector, slack float64, err error) {
	want = initialCheckpoint(seed, dim).Params
	exact = want.Clone()
	for r := int64(0); r < rounds; r++ {
		u := roundParams(seed, r, dim)
		b, err := encodeUpdate(r, u, enc)
		if err != nil {
			return nil, nil, 0, err
		}
		decoded, err := checkpoint.Unmarshal(b)
		if err != nil {
			return nil, nil, 0, err
		}
		want.Axpy(1/updateWeight, decoded.Params)
		exact.Axpy(1/updateWeight, u)
		if enc == checkpoint.EncodingQuant8 {
			lo, hi := u[0], u[0]
			for _, x := range u {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			slack += (hi - lo) / 255 / 2 / updateWeight
		}
	}
	return want, exact, slack, nil
}

// verifyModel is the correctness gate: the committed checkpoint must equal
// the closed-form sum to 1e-9 relative, and stay within the quantizer's
// half-step bound of the unquantized sum.
func verifyModel(got *checkpoint.Checkpoint, seed uint64, dim int, enc checkpoint.Encoding) error {
	if len(got.Params) != dim {
		return fmt.Errorf("committed dim %d, want %d", len(got.Params), dim)
	}
	want, exact, slack, err := expectedModel(seed, dim, enc, got.Round)
	if err != nil {
		return err
	}
	for i, g := range got.Params {
		if d := math.Abs(g - want[i]); d > 1e-9*math.Max(1, math.Abs(want[i])) {
			return fmt.Errorf("round %d param %d: committed %v, closed form %v (off by %g)", got.Round, i, g, want[i], d)
		}
		if d := math.Abs(g - exact[i]); d > slack+1e-9*math.Max(1, math.Abs(exact[i])) {
			return fmt.Errorf("round %d param %d: committed %v is %g from the unquantized sum %v (bound %g)", got.Round, i, g, d, exact[i], slack)
		}
	}
	return nil
}
