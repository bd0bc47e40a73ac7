package device

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Runtime is the on-device FL runtime: it executes FL plans against the
// registered example stores, checking eligibility between steps and logging
// training to the session's log (the event logs behind Table 1).
type Runtime struct {
	DeviceID string
	// Version is the FL runtime version; plans requiring a newer version
	// are rejected (Sec. 7.3).
	Version     int
	Eligibility *Eligibility
	stores      map[string]ExampleStore
	rng         *tensor.RNG
}

// NewRuntime creates a runtime for a device.
func NewRuntime(deviceID string, version int, elig *Eligibility, seed uint64) *Runtime {
	if elig == nil {
		elig = NewEligibility(Conditions{Idle: true, Charging: true, Unmetered: true})
	}
	return &Runtime{
		DeviceID:    deviceID,
		Version:     version,
		Eligibility: elig,
		stores:      make(map[string]ExampleStore),
		rng:         tensor.NewRNG(seed),
	}
}

// RegisterStore makes an application's example store available to plans.
func (r *Runtime) RegisterStore(s ExampleStore) error {
	if _, dup := r.stores[s.Name()]; dup {
		return fmt.Errorf("device: store %q already registered", s.Name())
	}
	r.stores[s.Name()] = s
	return nil
}

// Result is the outcome of executing a plan.
type Result struct {
	// Update is the weighted model delta for training plans (nil for eval).
	Update *checkpoint.Checkpoint
	// Metrics are the plan-computed metric values.
	Metrics map[string]float64
	// Interrupted is true when the run aborted on an eligibility change.
	Interrupted bool
}

// Execute runs the device portion of a plan against the global checkpoint,
// logging training's start and end; how the session ends is the Session's
// to log. An eligibility lapse is a Result with Interrupted set, not an
// error: interruption is a normal outcome (2% of sessions in Table 1).
func (r *Runtime) Execute(p *plan.Plan, global *checkpoint.Checkpoint, now time.Time, log *Log) (*Result, error) {
	res := &Result{Metrics: make(map[string]float64)}
	if p.Device.MinRuntimeVersion > r.Version {
		return res, fmt.Errorf("device: plan %q needs runtime ≥ %d, have %d",
			p.ID, p.Device.MinRuntimeVersion, r.Version)
	}

	var model nn.Model
	var globalParams tensor.Vector
	var examples []nn.Example
	var update *fedavg.Update

	for _, op := range p.Device.Ops {
		if !r.Eligibility.OK() {
			res.Interrupted = true
			return res, nil
		}
		switch op {
		case plan.OpLoadCheckpoint:
			m, err := p.Device.Model.Build()
			if err != nil {
				return res, fmt.Errorf("device: build model: %w", err)
			}
			if len(global.Params) != m.NumParams() {
				return res, fmt.Errorf("device: checkpoint has %d params, model wants %d",
					len(global.Params), m.NumParams())
			}
			m.WriteParams(global.Params)
			model = m
			globalParams = global.Params.Clone()

		case plan.OpSelectExamples:
			store, ok := r.stores[p.Device.Selection.StoreName]
			if !ok {
				return res, fmt.Errorf("device: no example store %q", p.Device.Selection.StoreName)
			}
			examples = store.Select(p.Device.Selection, now)
			if len(examples) == 0 {
				return res, fmt.Errorf("device: store %q returned no examples", store.Name())
			}

		case plan.OpTrain, plan.OpFusedTrainMetrics:
			if model == nil || examples == nil {
				return res, fmt.Errorf("device: %v before load/select", op)
			}
			log.Add(StateTrainStarted)
			u, err := fedavg.ClientUpdate(model, globalParams, examples, fedavg.ClientConfig{
				BatchSize: p.Device.BatchSize,
				Epochs:    p.Device.Epochs,
				LR:        p.Device.LearningRate,
				Shuffle:   true,
			}, r.rng)
			if err != nil {
				return res, fmt.Errorf("device: train: %w", err)
			}
			update = u
			log.Add(StateTrainCompleted)
			if op == plan.OpFusedTrainMetrics {
				res.Metrics["train_loss"] = u.TrainLoss
				res.Metrics["num_examples"] = u.Weight
			}

		case plan.OpEval:
			if model == nil || examples == nil {
				return res, fmt.Errorf("device: eval before load/select")
			}
			met := model.Evaluate(examples)
			res.Metrics["eval_loss"] = met.Loss
			res.Metrics["eval_accuracy"] = met.Accuracy
			res.Metrics["num_examples"] = float64(met.Count)

		case plan.OpComputeMetrics:
			if update != nil {
				res.Metrics["train_loss"] = update.TrainLoss
				res.Metrics["num_examples"] = update.Weight
			}

		case plan.OpSaveUpdate:
			if update == nil {
				return res, fmt.Errorf("device: save_update before train")
			}
			if p.Device.ClipNorm > 0 {
				// Client-side norm bounding (the plan mirrors the server's
				// norm_bound policy): clipping before the update leaves the
				// device is what lets the policy compose with secure
				// aggregation, where the server never sees this vector.
				fedavg.ClipUpdate(update, p.Device.ClipNorm)
			}
			res.Update = &checkpoint.Checkpoint{
				TaskName: p.ID,
				Round:    global.Round,
				Weight:   update.Weight,
				Params:   update.Delta,
			}

		default:
			return res, fmt.Errorf("device: unknown op %v", op)
		}
	}
	return res, nil
}
