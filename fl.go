// Package repro is a from-scratch Go reproduction of "Towards Federated
// Learning at Scale: System Design" (Bonawitz et al., MLSys 2019): the
// synchronous FL protocol, the actor-based server (Coordinator / Selector /
// EdgeRound / Aggregator), the on-device runtime, pace steering,
// Secure Aggregation, the analytics layer, and the model engineer workflow.
//
// This root package is the public API surface. Three levels of use:
//
//   - Train: run Federated Averaging in-process over a per-user dataset
//     (the algorithmic core, no servers).
//   - Simulate: run the discrete-event fleet simulation behind the paper's
//     operational figures (diurnal participation, drop-out, traffic).
//   - NewServer / NewDeviceClient: run the real protocol — actor server on
//     one side, device runtimes on the other — over in-memory or TCP
//     transports.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package repro

import (
	"time"

	"repro/internal/attest"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fedanalytics"
	"repro/internal/fedavg"
	"repro/internal/fleet"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// Re-exported core types. The internal packages stay the implementation;
// these aliases are the supported names.
type (
	// ModelSpec describes a model architecture (logistic, MLP, RNN LM).
	ModelSpec = nn.Spec
	// Model is a trainable model with a flat parameter vector.
	Model = nn.Model
	// Example is one training example.
	Example = nn.Example
	// Metrics summarizes an evaluation.
	Metrics = nn.Metrics
	// Federated is a per-user dataset partition.
	Federated = data.Federated
	// TaskConfig is the model-engineer task configuration (Sec. 7).
	TaskConfig = plan.Config
	// Plan is a generated FL plan.
	Plan = plan.Plan
	// ClientConfig is the on-device training configuration.
	ClientConfig = fedavg.ClientConfig
	// Trainer runs the FedAvg loop in-process.
	Trainer = fedavg.Trainer
	// RoundResult reports one training round.
	RoundResult = fedavg.RoundResult
	// SimConfig configures the fleet simulation.
	SimConfig = sim.Config
	// SimResults is the fleet simulation output.
	SimResults = sim.Results
	// PopulationConfig parametrizes the simulated fleet.
	PopulationConfig = population.Config
	// ServerConfig configures the actor-based FL server.
	ServerConfig = flserver.Config
	// Server is the FL server for one population.
	Server = flserver.Server
	// FleetConfig configures the multi-population fleet gateway.
	FleetConfig = fleet.Config
	// Fleet serves many FL populations over one shared Selector layer.
	Fleet = fleet.Fleet
	// PopulationSpec registers one FL population with a Fleet.
	PopulationSpec = fleet.PopulationSpec
	// FleetPopulationStats bundles one population's round and selector
	// progress within a Fleet.
	FleetPopulationStats = fleet.PopulationStats
	// TaskState is an FL task's lifecycle state (Active/Paused/Retired).
	TaskState = tasks.State
	// TaskPolicy is a task's scheduling policy: weighted round-robin
	// weight, eval cadence, deployment gates.
	TaskPolicy = tasks.Policy
	// TaskStats is one task's cumulative lifecycle record.
	TaskStats = tasks.Stats
	// DeviceClient drives one device through the protocol.
	DeviceClient = flserver.DeviceClient
	// DeviceRuntime executes FL plans on a device.
	DeviceRuntime = device.Runtime
	// Checkpoint is serialized model state.
	Checkpoint = checkpoint.Checkpoint
)

// Model kinds for ModelSpec.
const (
	KindLogistic = nn.KindLogistic
	KindMLP      = nn.KindMLP
	KindRNNLM    = nn.KindRNNLM
)

// Task types for TaskConfig.Type.
const (
	TaskTrain = plan.TaskTrain
	TaskEval  = plan.TaskEval
)

// Task lifecycle states. Tasks are submitted onto live populations with
// Server.SubmitTask / Fleet.SubmitTask, scheduled per their TaskPolicy,
// and paused, resumed, or retired at runtime; per-task progress is
// reported by TaskStats.
const (
	TaskActive  = tasks.Active
	TaskPaused  = tasks.Paused
	TaskRetired = tasks.Retired
)

// GeneratePlan builds a validated FL plan from a task configuration,
// applying the paper's defaults (130% over-selection, quantized update
// encoding, …).
func GeneratePlan(cfg TaskConfig) (*Plan, error) { return plan.Generate(cfg) }

// NewTrainer builds an in-process FedAvg trainer with a freshly initialized
// global model.
func NewTrainer(spec ModelSpec, client ClientConfig, seed uint64) (*Trainer, error) {
	return fedavg.NewTrainer(spec, client, seed)
}

// Train runs rounds of Federated Averaging with devicesPerRound uniformly
// sampled users per round, returning the trainer (holding the global
// model) and the final test metrics.
func Train(spec ModelSpec, fed *Federated, client ClientConfig, rounds, devicesPerRound int, seed uint64) (*Trainer, Metrics, error) {
	tr, err := fedavg.NewTrainer(spec, client, seed)
	if err != nil {
		return nil, Metrics{}, err
	}
	if err := TrainWith(tr, fed, rounds, devicesPerRound, seed+1); err != nil {
		return nil, Metrics{}, err
	}
	return tr, tr.Evaluate(fed.Test), nil
}

// TrainWith continues training an existing trainer for more rounds.
func TrainWith(tr *Trainer, fed *Federated, rounds, devicesPerRound int, seed uint64) error {
	rng := newRoundRNG(seed)
	for r := 0; r < rounds; r++ {
		sel := rng.sample(fed, devicesPerRound)
		if _, err := tr.Round(sel); err != nil {
			return err
		}
	}
	return nil
}

// Simulate runs the discrete-event fleet simulation (Figs. 5–9, Table 1).
func Simulate(cfg SimConfig) (*SimResults, error) { return sim.Run(cfg) }

// NewServer builds the actor-based FL server for one population.
func NewServer(cfg ServerConfig) (*Server, error) { return flserver.New(cfg) }

// NewFleet builds the multi-population fleet gateway (Sec. 4.2): one
// device-facing process whose shared Selector layer serves every
// registered FL population, with one Coordinator per population under a
// shared locking service. Populations are added with Fleet.Register and
// removed with Fleet.Deregister at runtime.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewMemStorage returns in-memory checkpoint/metrics storage.
func NewMemStorage() storage.Store { return storage.NewMem() }

// NewFileStorage returns file-backed checkpoint storage rooted at dir.
func NewFileStorage(dir string) (storage.Store, error) { return storage.NewFile(dir) }

// NewMemNetwork returns an in-memory transport network for in-process
// deployments.
func NewMemNetwork() *transport.MemNetwork { return transport.NewMemNetwork() }

// ListenTCP / DialTCP expose the TCP transport for real deployments.
func ListenTCP(addr string) (transport.Listener, error) { return transport.ListenTCP(addr) }

// DialTCP connects a device to a TCP FL server.
func DialTCP(addr string) (transport.Conn, error) { return transport.DialTCP(addr) }

// NewDeviceRuntime builds an on-device FL runtime.
func NewDeviceRuntime(deviceID string, version int, seed uint64) *DeviceRuntime {
	return device.NewRuntime(deviceID, version, nil, seed)
}

// NewExampleStore returns the bounded, expiring example store applications
// register with the runtime.
func NewExampleStore(name string, maxEntries int, expiration time.Duration) (*device.MemStore, error) {
	return device.NewMemStore(name, maxEntries, expiration)
}

// NewPaceSteering returns pace steering tuned for the given round cadence.
func NewPaceSteering(roundPeriod time.Duration) *pacing.Steering { return pacing.New(roundPeriod) }

// NewAttestationVerifier returns the server-side attestation check for a
// platform master secret.
func NewAttestationVerifier(master []byte) *attest.Verifier { return attest.NewVerifier(master) }

// NewGenuineDevice returns device-side attestation state for a genuine
// device.
func NewGenuineDevice(master []byte, deviceID string) *attest.Device {
	return attest.NewGenuineDevice(master, deviceID)
}

// MarkovLM, Blobs and Ranking generate the synthetic federated datasets.
func MarkovLM(cfg data.LMConfig) (*Federated, error)     { return data.MarkovLM(cfg) }
func Blobs(cfg data.BlobsConfig) (*Federated, error)     { return data.Blobs(cfg) }
func Ranking(cfg data.RankingConfig) (*Federated, error) { return data.Ranking(cfg) }

// Dataset config aliases.
type (
	// LMConfig configures the next-word corpus.
	LMConfig = data.LMConfig
	// BlobsConfig configures the classification dataset.
	BlobsConfig = data.BlobsConfig
	// RankingConfig configures the item-ranking dataset.
	RankingConfig = data.RankingConfig
)

// AnalyticsQuery is a Federated Analytics histogram query (Sec. 11,
// Federated Computation).
type AnalyticsQuery = fedanalytics.Query

// TokenHistogram counts token occurrences across device corpora.
func TokenHistogram(vocab int) AnalyticsQuery { return fedanalytics.TokenHistogram(vocab) }

// LabelHistogram counts examples per class label across devices.
func LabelHistogram(classes int) AnalyticsQuery { return fedanalytics.LabelHistogram(classes) }

// AnalyticsVector computes one device's local contribution for a query.
func AnalyticsVector(q AnalyticsQuery, examples []Example) ([]float64, error) {
	return fedanalytics.DeviceVector(q, examples)
}

// AggregateAnalytics sums per-device vectors; with secure=true the sum is
// computed through Secure Aggregation groups of at least groupSize, so the
// server never sees an individual device's counts.
func AggregateAnalytics(vectors map[int][]float64, bins int, secure bool, groupSize int) ([]float64, error) {
	return fedanalytics.Aggregate(vectors, bins, secure, groupSize)
}
