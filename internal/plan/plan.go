// Package plan implements FL plans (Sec. 2.1, 7.2): the data structure that
// tells a device what computation to run and the server how to aggregate.
// A plan has a device portion (model spec, example selection criteria,
// batching/epochs, an op sequence standing in for the TensorFlow graph) and
// a server portion (aggregation logic and round parameters).
//
// Plans are generated from a model + configuration (Generate), and can be
// transformed into versioned plans compatible with older device runtimes
// (Sec. 7.3), mirroring the paper's graph-transformation approach.
package plan

import (
	"fmt"
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/wire"
)

// Op is one step of the device-side computation. The sequence of ops is the
// stand-in for the TensorFlow graph: the device runtime interprets them in
// order, and plan versioning rewrites them (see versions.go).
type Op uint8

// Device-plan operations.
const (
	OpLoadCheckpoint Op = iota + 1 // restore global model into the runtime
	OpSelectExamples               // query the example store per criteria
	OpTrain                        // run E epochs of minibatch SGD
	OpEval                         // compute metrics on held-out local data
	OpComputeMetrics               // summarize training metrics
	OpSaveUpdate                   // emit the weighted model delta
	// OpFusedTrainMetrics is a newer fused op (train + metrics in one pass)
	// that old runtimes do not support; versioned plan transformation
	// rewrites it to OpTrain + OpComputeMetrics.
	OpFusedTrainMetrics
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpLoadCheckpoint:
		return "load_checkpoint"
	case OpSelectExamples:
		return "select_examples"
	case OpTrain:
		return "train"
	case OpEval:
		return "eval"
	case OpComputeMetrics:
		return "compute_metrics"
	case OpSaveUpdate:
		return "save_update"
	case OpFusedTrainMetrics:
		return "fused_train_metrics"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// TaskType distinguishes training tasks from evaluation tasks (Sec. 3:
// "FL plans are not specialized to training, but can also encode evaluation
// tasks").
type TaskType uint8

// Task types.
const (
	TaskTrain TaskType = iota + 1
	TaskEval
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	if t == TaskEval {
		return "eval"
	}
	return "train"
}

// SelectionCriteria tells the device which examples to query from its
// example store (Sec. 7.2: "selection criteria for training data in the
// example store").
type SelectionCriteria struct {
	StoreName   string
	MaxExamples int           // cap on examples used per round
	MaxAge      time.Duration // ignore examples older than this (0 = no limit)
}

// DevicePlan is the device portion of an FL plan.
type DevicePlan struct {
	Model        nn.Spec
	Ops          []Op
	Selection    SelectionCriteria
	BatchSize    int
	Epochs       int
	LearningRate float64
	// ReportEncoding is how the device encodes its update and, for a training
	// task, how it is served the global model (Plan.DownlinkEncoding).
	ReportEncoding checkpoint.Encoding
	// MinRuntimeVersion is the oldest device runtime that can execute this
	// op sequence.
	MinRuntimeVersion int
	// ClipNorm, when positive, makes the device clip its update so the
	// per-example-average delta has L2 norm at most ClipNorm before
	// reporting (fedavg.ClipUpdate semantics). Generate mirrors
	// Server.Robust.ClipNorm here for norm_bound tasks: under secure
	// aggregation the server never sees individual updates, so client-side
	// clipping is the only place the bound can be enforced for honest
	// devices.
	ClipNorm float64
}

// AggregationKind selects the server-side aggregation mechanism
// (Sec. 2.2 Configuration: "simple or Secure Aggregation").
type AggregationKind uint8

// Aggregation mechanisms.
const (
	AggregationSimple AggregationKind = iota + 1
	AggregationSecure
)

// String implements fmt.Stringer.
func (a AggregationKind) String() string {
	if a == AggregationSecure {
		return "secagg"
	}
	return "simple"
}

// ServerPlan is the server portion of an FL plan: the aggregation logic and
// the round-window parameters of Sec. 2.2.
type ServerPlan struct {
	Aggregation AggregationKind
	// SecAggGroupSize is the parameter k of Sec. 6: updates are securely
	// aggregated over groups of at least this size.
	SecAggGroupSize int
	// SecAggThresholdFraction sets the Shamir threshold t of a secure
	// group as a fraction of the group size n (t = ⌈fraction × n⌉, clamped
	// to [2, n]). It trades dropout tolerance against collusion resistance:
	// a group survives up to n − t mid-protocol dropouts, while any t
	// colluding participants could reconstruct a dropped device's masking
	// key. 0 defaults to the majority threshold n/2 + 1.
	SecAggThresholdFraction float64
	// TargetDevices is K, the number of reports needed to commit a round.
	TargetDevices int
	// OverSelectFactor is how many devices to admit relative to K
	// (typically 1.3, Sec. 9).
	OverSelectFactor float64
	// MinReportFraction is the minimal fraction of K required to commit the
	// round when the report window times out.
	MinReportFraction float64
	SelectionTimeout  time.Duration
	ReportTimeout     time.Duration
	// ParticipationCap bounds a single device's participation time
	// (the straggler cap visible in Fig. 8).
	ParticipationCap time.Duration
	// ReportEncoding is the encoding of a training task's device link, the
	// Sec. 11 bandwidth lever: EncodingQuant8 ships 1 byte/param instead of 8
	// both ways — updates up (dequantized straight into the aggregation
	// stripes) and the global model down (Plan.DownlinkEncoding); eval tasks
	// are served float64. Generate mirrors it into the device plan; 0 defers
	// to Device.ReportEncoding (plans marshaled before this field existed).
	ReportEncoding checkpoint.Encoding
	// Robust selects the robust aggregation policy applied to this task's
	// updates before they reach the committed checkpoint (see RobustKind).
	// The zero value is the plain weighted mean.
	Robust RobustPolicy
}

// SelectTarget returns the number of devices to admit into a round.
func (s ServerPlan) SelectTarget() int {
	n := int(float64(s.TargetDevices)*s.OverSelectFactor + 0.5)
	if n < s.TargetDevices {
		n = s.TargetDevices
	}
	return n
}

// SecAggThreshold resolves the Shamir threshold for a secure group of n
// devices: ⌈SecAggThresholdFraction × n⌉ clamped to [2, n], or the
// majority n/2 + 1 when the fraction is unset.
func (s ServerPlan) SecAggThreshold(n int) int {
	if n < 2 {
		return n
	}
	t := n/2 + 1
	if f := s.SecAggThresholdFraction; f > 0 {
		t = int(math.Ceil(f * float64(n)))
	}
	if t < 2 {
		t = 2
	}
	if t > n {
		t = n
	}
	return t
}

// MinReports returns the minimum number of reports to commit a round.
func (s ServerPlan) MinReports() int {
	m := int(float64(s.TargetDevices)*s.MinReportFraction + 0.5)
	if m < 1 {
		m = 1
	}
	if m > s.TargetDevices {
		m = s.TargetDevices
	}
	return m
}

// Plan is a complete FL plan for one FL task.
type Plan struct {
	// ID uniquely names the FL task this plan implements.
	ID string
	// Population is the globally unique FL population name (Sec. 2.1).
	Population string
	Type       TaskType
	Device     DevicePlan
	Server     ServerPlan
}

// Validate reports whether the plan is internally consistent and deployable.
func (p *Plan) Validate() error {
	if p.ID == "" || p.Population == "" {
		return fmt.Errorf("plan: ID and Population are required")
	}
	if err := p.Device.Model.Validate(); err != nil {
		return fmt.Errorf("plan %q: %w", p.ID, err)
	}
	if len(p.Device.Ops) == 0 {
		return fmt.Errorf("plan %q: empty op sequence", p.ID)
	}
	if p.Device.Ops[0] != OpLoadCheckpoint {
		return fmt.Errorf("plan %q: op sequence must start with load_checkpoint", p.ID)
	}
	if p.Type == TaskTrain {
		if p.Device.BatchSize <= 0 || p.Device.Epochs <= 0 || p.Device.LearningRate <= 0 {
			return fmt.Errorf("plan %q: training plan needs positive batch size, epochs, learning rate", p.ID)
		}
		last := p.Device.Ops[len(p.Device.Ops)-1]
		if last != OpSaveUpdate {
			return fmt.Errorf("plan %q: training plan must end with save_update", p.ID)
		}
	}
	if p.Server.TargetDevices <= 0 {
		return fmt.Errorf("plan %q: TargetDevices must be positive", p.ID)
	}
	if p.Server.OverSelectFactor < 1 {
		return fmt.Errorf("plan %q: OverSelectFactor must be ≥ 1", p.ID)
	}
	if p.Server.MinReportFraction <= 0 || p.Server.MinReportFraction > 1 {
		return fmt.Errorf("plan %q: MinReportFraction must be in (0,1]", p.ID)
	}
	if p.Server.Aggregation == AggregationSecure && p.Server.SecAggGroupSize < 2 {
		return fmt.Errorf("plan %q: secure aggregation needs SecAggGroupSize ≥ 2", p.ID)
	}
	if f := p.Server.SecAggThresholdFraction; f < 0 || f > 1 {
		return fmt.Errorf("plan %q: SecAggThresholdFraction must be in [0,1]", p.ID)
	}
	if e := p.Server.ReportEncoding; e != 0 && !e.Valid() {
		return fmt.Errorf("plan %q: unknown report encoding %d", p.ID, e)
	}
	if p.Server.ReportEncoding != 0 && p.Device.ReportEncoding != 0 &&
		p.Server.ReportEncoding != p.Device.ReportEncoding {
		return fmt.Errorf("plan %q: server requests report encoding %d but device plan carries %d",
			p.ID, p.Server.ReportEncoding, p.Device.ReportEncoding)
	}
	return p.validateRobust()
}

// UplinkEncoding resolves the encoding devices use for their update
// reports: the server plan's request when set, else the device plan's
// (plans marshaled before ServerPlan.ReportEncoding existed), else full
// float64.
func (p *Plan) UplinkEncoding() checkpoint.Encoding {
	if p.Server.ReportEncoding != 0 {
		return p.Server.ReportEncoding
	}
	if p.Device.ReportEncoding != 0 {
		return p.Device.ReportEncoding
	}
	return checkpoint.EncodingFloat64
}

// DownlinkEncoding resolves the encoding devices are served the global model
// in: Quant8 exactly when a training task's uplink is Quant8 (eval tasks
// score the exact model). The master stays float64 and is re-quantized every
// round, so quantization error cannot accumulate across rounds.
func (p *Plan) DownlinkEncoding() checkpoint.Encoding {
	if p.Type == TaskTrain && p.UplinkEncoding() == checkpoint.EncodingQuant8 {
		return checkpoint.EncodingQuant8
	}
	return checkpoint.EncodingFloat64
}

// The first byte of a marshaled plan names its format; each moves whenever
// its field list does. DESIGN.md tabulates both layouts. Format 5 is the
// whole plan (the shard link, task snapshots); format 4 is the device's part
// (the device link); 1 and 2, their fixed-width layouts, and 3, the whole
// plan before the server part lost a field, are refused.
const (
	wireFormat   = 5
	deviceFormat = 4
)

// Marshal encodes the plan under format 5: the format byte, the device's
// section of format 4, then what only the server reads — ID, Population,
// the model's seed, and every field of ServerPlan and RobustPolicy in
// declaration order — under internal/wire's conventions: ints and durations
// as varints, floats as f64, enums as u8, Ops as a byte string.
func (p *Plan) Marshal() ([]byte, error) { return p.marshal(wireFormat, &p.Device), nil }

// MarshalDevice encodes what Configuration sends a device (Sec. 2.2) under
// format 4: Type and DevicePlan, with the resolved UplinkEncoding in
// Device.ReportEncoding so a plan that sets only Server.ReportEncoding still
// tells its devices how to report. ID and Population (the session names
// them), the seed the global model overwrites and ServerPlan stay behind.
func (p *Plan) MarshalDevice() ([]byte, error) {
	d := p.Device
	d.ReportEncoding = p.UplinkEncoding()
	return p.marshal(deviceFormat, &d), nil
}

// marshal sizes the descriptor, then encodes it into one exact-size buffer.
func (p *Plan) marshal(format byte, d *DevicePlan) []byte {
	var c wire.Codec
	p.walk(&c, format, d)
	c.Encode(false)
	p.walk(&c, format, d)
	return c.Encoded()
}

// Unmarshal decodes a plan produced by Marshal. It rejects any other format
// byte, a truncated body and trailing bytes; it never panics.
func Unmarshal(b []byte) (*Plan, error) { return unmarshal(b, wireFormat) }

// UnmarshalDevice decodes a descriptor produced by MarshalDevice into a plan
// whose ID, Population, seed and Server part are zero, under Unmarshal's rules.
func UnmarshalDevice(b []byte) (*Plan, error) { return unmarshal(b, deviceFormat) }

func unmarshal(b []byte, format byte) (*Plan, error) {
	if len(b) == 0 || b[0] != format {
		return nil, fmt.Errorf("plan: unmarshal: not a format-%d plan descriptor", format)
	}
	p := &Plan{}
	c := wire.Decoder(b)
	p.walk(&c, format, &p.Device)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("plan: unmarshal: %w", err)
	}
	return p, nil
}

// walk is the descriptor layout: the format byte, then the section both
// formats carry — Type and d, ReportEncoding first and the model's seed
// left out — and, under format 5, the server's part after it.
func (p *Plan) walk(c *wire.Codec, format byte, d *DevicePlan) {
	m, s, r := &d.Model, &p.Server, &p.Server.Robust
	c.U8(&format)
	c.U8((*uint8)(&p.Type))
	c.U8((*uint8)(&d.ReportEncoding))
	c.U8((*uint8)(&m.Kind))
	for _, v := range [...]*int{&m.Features, &m.Hidden, &m.Classes, &m.Vocab, &m.Embed} {
		c.Int(v)
	}
	ops := len(d.Ops)
	c.Count(&ops, 1)
	if c.Decoding() && ops > 0 {
		d.Ops = make([]Op, ops)
	}
	for i := range ops {
		c.U8((*uint8)(&d.Ops[i]))
	}
	c.Str(&d.Selection.StoreName)
	c.Int(&d.Selection.MaxExamples)
	c.Dur(&d.Selection.MaxAge)
	c.Int(&d.BatchSize)
	c.Int(&d.Epochs)
	c.F64(&d.LearningRate)
	c.Int(&d.MinRuntimeVersion)
	c.F64(&d.ClipNorm)
	if format == deviceFormat {
		return
	}

	c.Str(&p.ID)
	c.Str(&p.Population)
	c.U64(&m.Seed)
	c.U8((*uint8)(&s.Aggregation))
	c.Int(&s.SecAggGroupSize)
	c.F64(&s.SecAggThresholdFraction)
	c.Int(&s.TargetDevices)
	c.F64(&s.OverSelectFactor)
	c.F64(&s.MinReportFraction)
	c.Dur(&s.SelectionTimeout)
	c.Dur(&s.ReportTimeout)
	c.Dur(&s.ParticipationCap)
	c.U8((*uint8)(&s.ReportEncoding))

	c.U8((*uint8)(&r.Kind))
	c.F64(&r.ClipNorm)
	c.F64(&r.TrimFraction)
	c.F64(&r.MaxCosineDistance)
	c.Bool(&r.QuantSafe)
}

// Config is what a model engineer supplies to Generate (Sec. 7.1: "the
// configuration of tasks is also written in Python and includes runtime
// parameters such as the optimal number of devices in a round as well as
// model hyperparameters like learning rate").
type Config struct {
	TaskID            string
	Population        string
	Type              TaskType
	Model             nn.Spec
	StoreName         string
	BatchSize         int
	Epochs            int
	LearningRate      float64
	MaxExamples       int
	TargetDevices     int
	OverSelectFactor  float64 // default 1.3
	MinReportFraction float64 // default 0.8
	SelectionTimeout  time.Duration
	ReportTimeout     time.Duration
	ParticipationCap  time.Duration
	SecureAggregation bool
	SecAggGroupSize   int // default 16 when secure aggregation is on
	// SecAggThresholdFraction mirrors the ServerPlan field of the same
	// name (0 = default).
	SecAggThresholdFraction float64
	ReportEncoding          checkpoint.Encoding
	// Robust selects the robust aggregation policy (see RobustKind); the
	// zero value is the plain weighted mean. Per-update policies
	// (trimmed_mean, median, cosine_outlier) default the uplink encoding to
	// float64 unless QuantSafe is set or an encoding is given explicitly.
	Robust RobustPolicy
	// UseFusedOps emits the newer fused train+metrics op, exercising the
	// versioned-plan transformation for older runtimes.
	UseFusedOps bool
}

// Generate builds a validated plan from the engineer-supplied configuration,
// applying the paper's defaults where the config leaves zeros.
func Generate(cfg Config) (*Plan, error) {
	if cfg.OverSelectFactor == 0 {
		cfg.OverSelectFactor = 1.3
	}
	if cfg.MinReportFraction == 0 {
		cfg.MinReportFraction = 0.8
	}
	if cfg.SelectionTimeout == 0 {
		cfg.SelectionTimeout = 2 * time.Minute
	}
	if cfg.ReportTimeout == 0 {
		cfg.ReportTimeout = 3 * time.Minute
	}
	if cfg.ParticipationCap == 0 {
		cfg.ParticipationCap = cfg.ReportTimeout
	}
	if cfg.ReportEncoding == 0 {
		cfg.ReportEncoding = checkpoint.EncodingQuant8
		// A per-update robust policy decodes every update before reducing;
		// unless the task declared dequantize-then-reduce safe, keep the
		// defense exact by defaulting the uplink to full precision.
		if cfg.Robust.PerUpdate() && !cfg.Robust.QuantSafe {
			cfg.ReportEncoding = checkpoint.EncodingFloat64
		}
	}
	if cfg.Type == 0 {
		cfg.Type = TaskTrain
	}
	if cfg.SecureAggregation && cfg.SecAggGroupSize == 0 {
		cfg.SecAggGroupSize = 16
	}

	var ops []Op
	switch cfg.Type {
	case TaskTrain:
		if cfg.UseFusedOps {
			ops = []Op{OpLoadCheckpoint, OpSelectExamples, OpFusedTrainMetrics, OpSaveUpdate}
		} else {
			ops = []Op{OpLoadCheckpoint, OpSelectExamples, OpTrain, OpComputeMetrics, OpSaveUpdate}
		}
	case TaskEval:
		ops = []Op{OpLoadCheckpoint, OpSelectExamples, OpEval, OpComputeMetrics}
	default:
		return nil, fmt.Errorf("plan: unknown task type %d", cfg.Type)
	}

	agg := AggregationSimple
	if cfg.SecureAggregation {
		agg = AggregationSecure
	}
	// Norm-bound tasks mirror the clip into the device plan so honest
	// devices bound their own updates; under secagg that mirror is the
	// entire enforcement mechanism.
	var clipNorm float64
	if cfg.Robust.Kind == RobustNormBound {
		clipNorm = cfg.Robust.ClipNorm
	}
	p := &Plan{
		ID:         cfg.TaskID,
		Population: cfg.Population,
		Type:       cfg.Type,
		Device: DevicePlan{
			Model: cfg.Model,
			Ops:   ops,
			Selection: SelectionCriteria{
				StoreName:   cfg.StoreName,
				MaxExamples: cfg.MaxExamples,
			},
			BatchSize:         cfg.BatchSize,
			Epochs:            cfg.Epochs,
			LearningRate:      cfg.LearningRate,
			ReportEncoding:    cfg.ReportEncoding,
			MinRuntimeVersion: requiredVersion(ops),
			ClipNorm:          clipNorm,
		},
		Server: ServerPlan{
			Aggregation:             agg,
			SecAggGroupSize:         cfg.SecAggGroupSize,
			SecAggThresholdFraction: cfg.SecAggThresholdFraction,
			TargetDevices:           cfg.TargetDevices,
			OverSelectFactor:        cfg.OverSelectFactor,
			MinReportFraction:       cfg.MinReportFraction,
			SelectionTimeout:        cfg.SelectionTimeout,
			ReportTimeout:           cfg.ReportTimeout,
			ParticipationCap:        cfg.ParticipationCap,
			ReportEncoding:          cfg.ReportEncoding,
			Robust:                  cfg.Robust,
		},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
