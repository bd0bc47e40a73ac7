// Package repro is a from-scratch Go reproduction of "Towards Federated
// Learning at Scale: System Design" (Bonawitz et al., MLSys 2019): the
// synchronous FL protocol, the actor-based server (Coordinator / Selector /
// EdgeRound / Aggregator), the on-device runtime, pace steering,
// Secure Aggregation, the analytics layer, and the model engineer workflow.
//
// This root package is the small facade the binaries under cmd/ and
// examples/quickstart are written against; the implementation is the
// internal packages, mapped in DESIGN.md §1. Two levels of use:
//
//   - Train: train a task on a per-user dataset through the round engine in
//     one process — one device per user, on a virtual clock —
//     examples/quickstart.
//   - NewFleet: run the real protocol's actor server (cmd/flserver) over
//     TCP; cmd/fldevices drives internal/device's sessions against it.
package repro

import (
	"time"

	"repro/internal/data"
	"repro/internal/fedavg"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Re-exported core types. The internal packages stay the implementation;
// these aliases are the supported names.
type (
	// ModelSpec describes a model architecture (logistic, MLP, RNN LM).
	ModelSpec = nn.Spec
	// Metrics summarizes an evaluation.
	Metrics = nn.Metrics
	// Federated is a per-user dataset partition.
	Federated = data.Federated
	// BlobsConfig configures the synthetic classification dataset.
	BlobsConfig = data.BlobsConfig
	// TaskConfig is the model-engineer task configuration (Sec. 7).
	TaskConfig = plan.Config
	// Plan is a generated FL plan.
	Plan = plan.Plan
	// ClientConfig is the on-device training configuration.
	ClientConfig = fedavg.ClientConfig
	// FleetConfig configures the multi-population fleet gateway; a Selector
	// pools at most each population's last grant, with no capacity knob.
	FleetConfig = flserver.FleetConfig
	// Fleet serves many FL populations over one shared Selector layer.
	Fleet = flserver.Fleet
	// PopulationSpec registers one FL population with a Fleet.
	PopulationSpec = flserver.PopulationSpec
)

// Model kinds for ModelSpec.
const (
	KindLogistic = nn.KindLogistic
	KindMLP      = nn.KindMLP
)

// GeneratePlan builds a validated FL plan from a task configuration,
// applying the paper's defaults (130% over-selection, quantized update
// encoding, …).
func GeneratePlan(cfg TaskConfig) (*Plan, error) { return plan.Generate(cfg) }

// Train trains spec for rounds committed rounds of devicesPerRound devices
// (all of them when it exceeds the users) on the round engine: the product
// server and one device per user of fed, each holding that user's data, in
// one process on a virtual clock. It returns the last committed model's
// test metrics.
func Train(spec ModelSpec, fed *Federated, client ClientConfig, rounds, devicesPerRound int, seed uint64) (Metrics, error) {
	if devicesPerRound <= 0 || devicesPerRound > len(fed.Users) {
		devicesPerRound = len(fed.Users)
	}
	run, err := sim.Train(sim.TrainConfig{Task: plan.Config{Model: spec, BatchSize: client.BatchSize, Epochs: client.Epochs,
		LearningRate: client.LR, TargetDevices: devicesPerRound}, Users: fed.Users, Rounds: rounds, Seed: seed})
	if err != nil {
		return Metrics{}, err
	}
	return run.Evaluate(rounds-1, fed.Test), nil
}

// NewFleet builds the multi-population fleet gateway (Sec. 4.2): one
// device-facing process whose shared Selector layer serves every
// registered FL population, with one Coordinator per population under a
// shared locking service. Populations are added with Fleet.Register.
func NewFleet(cfg FleetConfig) *Fleet { return flserver.NewFleet(cfg) }

// ListenTCP exposes the TCP transport for real deployments.
func ListenTCP(addr string) (transport.Listener, error) { return transport.ListenTCP(addr) }

// NewPaceSteering returns pace steering tuned for the given round cadence.
func NewPaceSteering(roundPeriod time.Duration) *pacing.Steering { return pacing.New(roundPeriod) }

// Blobs generates the synthetic federated classification dataset.
func Blobs(cfg BlobsConfig) (*Federated, error) { return data.Blobs(cfg) }
