package fedavg

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Trainer runs the full synchronous Federated Averaging loop in-process: the
// algorithmic core of a round without the protocol machinery. The simulation
// harness and the convergence experiments (next-word, K-sweep) use it; the
// server actors reimplement the same loop over real device connections.
type Trainer struct {
	Spec   nn.Spec
	Client ClientConfig
	// Global is the current global model parameter vector.
	Global tensor.Vector
	// ServerMomentum enables FedAvgM: the server applies the averaged
	// update through a momentum buffer, v ← β·v + Δ; w ← w + v. One of the
	// algorithm directions the paper's Sec. 11 calls for ("FL would greatly
	// benefit from new algorithms"); 0 disables it (plain FedAvg).
	ServerMomentum float64
	// DP, when non-nil, enables differentially private aggregation
	// (per-device clipping + Gaussian noise on the average; see dp.go).
	DP *DPConfig
	// Downlink, when set, maps Global to what devices are served (a lossy
	// encoding's round trip); their deltas still land on Global.
	Downlink func(tensor.Vector) (tensor.Vector, error)

	velocity tensor.Vector
	model    nn.Model // reused across client updates
	round    int
	rng      *tensor.RNG
}

// RoundResult reports one completed round.
type RoundResult struct {
	Round     int
	Devices   int
	Examples  float64 // n̄
	TrainLoss float64 // mean of device-reported mean losses
}

// NewTrainer initializes the global model from the spec.
func NewTrainer(spec nn.Spec, client ClientConfig, seed uint64) (*Trainer, error) {
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	global := make(tensor.Vector, m.NumParams())
	m.ReadParams(global)
	return &Trainer{Spec: spec, Client: client, Global: global, model: m, rng: tensor.NewRNG(seed)}, nil
}

// Round runs one synchronous round over the given per-device datasets
// (each element is one participating device's local data) and applies the
// averaged update to the global model.
func (t *Trainer) Round(devices [][]nn.Example) (*RoundResult, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("fedavg: round with no devices")
	}
	served := t.Global
	if t.Downlink != nil {
		var err error
		if served, err = t.Downlink(t.Global); err != nil {
			return nil, fmt.Errorf("fedavg: downlink: %w", err)
		}
	}
	acc := NewAccumulator(len(t.Global))
	var lossSum float64
	for i, examples := range devices {
		u, err := ClientUpdate(t.model, served, examples, t.Client, t.rng.Derive(uint64(t.round)<<20|uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("fedavg: device %d: %w", i, err)
		}
		if t.DP != nil {
			ClipUpdate(u, t.DP.ClipNorm)
		}
		if err := acc.Add(u); err != nil {
			return nil, err
		}
		lossSum += u.TrainLoss
	}
	avg, err := acc.Average()
	if err != nil {
		return nil, err
	}
	if t.DP != nil {
		if err := AddNoise(avg, *t.DP, acc.Count(), t.rng.Derive(uint64(t.round)^0xD9)); err != nil {
			return nil, err
		}
	}
	if t.ServerMomentum > 0 {
		if t.velocity == nil {
			t.velocity = make(tensor.Vector, len(t.Global))
		}
		t.velocity.Scale(t.ServerMomentum)
		t.velocity.Axpy(1, avg)
		avg = t.velocity
	}
	if err := Apply(t.Global, avg); err != nil {
		return nil, err
	}
	t.round++
	return &RoundResult{
		Round:     t.round,
		Devices:   acc.Count(),
		Examples:  acc.Weight(),
		TrainLoss: lossSum / float64(len(devices)),
	}, nil
}

// Evaluate scores the current global model on examples.
func (t *Trainer) Evaluate(examples []nn.Example) nn.Metrics {
	t.model.WriteParams(t.Global)
	return t.model.Evaluate(examples)
}

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
