package plan

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/wire/wiretest"
)

func testConfig() Config {
	return Config{
		TaskID:        "pop/train-1",
		Population:    "pop",
		Model:         nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 2, Seed: 1},
		StoreName:     "clicks",
		BatchSize:     10,
		Epochs:        1,
		LearningRate:  0.1,
		TargetDevices: 100,
	}
}

func TestGenerateDefaults(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Server.OverSelectFactor != 1.3 {
		t.Errorf("OverSelectFactor = %v, want 1.3", p.Server.OverSelectFactor)
	}
	if p.Server.MinReportFraction != 0.8 {
		t.Errorf("MinReportFraction = %v, want 0.8", p.Server.MinReportFraction)
	}
	if p.Device.ReportEncoding != checkpoint.EncodingQuant8 {
		t.Errorf("ReportEncoding = %v, want Quant8", p.Device.ReportEncoding)
	}
	if p.Type != TaskTrain {
		t.Errorf("Type = %v, want train", p.Type)
	}
	if p.Server.ParticipationCap != p.Server.ReportTimeout {
		t.Errorf("ParticipationCap should default to ReportTimeout")
	}
	if p.Device.MinRuntimeVersion != 1 {
		t.Errorf("MinRuntimeVersion = %d, want 1", p.Device.MinRuntimeVersion)
	}
}

func TestSelectTargetIs130Percent(t *testing.T) {
	p, _ := Generate(testConfig())
	if got := p.Server.SelectTarget(); got != 130 {
		t.Fatalf("SelectTarget = %d, want 130", got)
	}
	if got := p.Server.MinReports(); got != 80 {
		t.Fatalf("MinReports = %d, want 80", got)
	}
}

func TestSelectTargetNeverBelowK(t *testing.T) {
	s := ServerPlan{TargetDevices: 10, OverSelectFactor: 1.0, MinReportFraction: 0.01}
	if s.SelectTarget() < 10 {
		t.Fatal("SelectTarget below K")
	}
	if s.MinReports() < 1 {
		t.Fatal("MinReports below 1")
	}
	s2 := ServerPlan{TargetDevices: 5, OverSelectFactor: 1.3, MinReportFraction: 1}
	if s2.MinReports() != 5 {
		t.Fatalf("MinReports = %d, want 5", s2.MinReports())
	}
}

func TestGenerateEvalPlan(t *testing.T) {
	cfg := testConfig()
	cfg.Type = TaskEval
	cfg.BatchSize, cfg.Epochs, cfg.LearningRate = 0, 0, 0
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Device.Ops {
		if op == OpTrain || op == OpSaveUpdate || op == OpFusedTrainMetrics {
			t.Fatalf("eval plan contains training op %v", op)
		}
	}
}

func TestGenerateSecureAggregation(t *testing.T) {
	cfg := testConfig()
	cfg.SecureAggregation = true
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Server.Aggregation != AggregationSecure {
		t.Fatal("aggregation should be secure")
	}
	if p.Server.SecAggGroupSize != 16 {
		t.Fatalf("SecAggGroupSize default = %d, want 16", p.Server.SecAggGroupSize)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	good, _ := Generate(testConfig())

	mutations := map[string]func(p *Plan){
		"empty id":          func(p *Plan) { p.ID = "" },
		"empty population":  func(p *Plan) { p.Population = "" },
		"bad model":         func(p *Plan) { p.Device.Model.Classes = 0 },
		"no ops":            func(p *Plan) { p.Device.Ops = nil },
		"no load first":     func(p *Plan) { p.Device.Ops = []Op{OpTrain, OpSaveUpdate} },
		"no save last":      func(p *Plan) { p.Device.Ops = []Op{OpLoadCheckpoint, OpTrain} },
		"zero batch":        func(p *Plan) { p.Device.BatchSize = 0 },
		"zero target":       func(p *Plan) { p.Server.TargetDevices = 0 },
		"underselect":       func(p *Plan) { p.Server.OverSelectFactor = 0.5 },
		"bad min fraction":  func(p *Plan) { p.Server.MinReportFraction = 0 },
		"secagg tiny group": func(p *Plan) { p.Server.Aggregation = AggregationSecure; p.Server.SecAggGroupSize = 1 },
	}
	for name, mutate := range mutations {
		p := *good
		p.Device = good.Device
		p.Device.Ops = append([]Op(nil), good.Device.Ops...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", name)
		}
	}
}

// marshalCases is every plan shape the codec must carry: a plan whose
// every field holds a distinct non-zero value (so a field added to Plan but
// not to Marshal/Unmarshal fails the round trip), the zero plan, and each
// kind of generated plan together with all its ForVersion lowerings.
func marshalCases(t testing.TB) map[string]*Plan {
	cases := map[string]*Plan{"zero": {}, "every field distinct": {}}
	wiretest.Fill(cases["every field distinct"])
	for name, mod := range map[string]func(*Config){
		"train": func(*Config) {},
		"fused": func(c *Config) { c.UseFusedOps = true },
		"eval":  func(c *Config) { c.Type = TaskEval },
		"secagg": func(c *Config) {
			c.SecureAggregation, c.SecAggThresholdFraction = true, 0.75
		},
		"norm bound": func(c *Config) { c.Robust = RobustPolicy{Kind: RobustNormBound, ClipNorm: 2.5} },
		"cosine quant-safe": func(c *Config) {
			c.ReportEncoding = checkpoint.EncodingFloat64
			c.Robust = RobustPolicy{Kind: RobustCosineOutlier, MaxCosineDistance: 0.7, QuantSafe: true}
		},
	} {
		cfg := testConfig()
		mod(&cfg)
		p, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = p
		for v := 1; v < p.Device.MinRuntimeVersion; v++ {
			if cases[fmt.Sprintf("%s/v%d", name, v)], err = p.ForVersion(v); err != nil {
				t.Fatalf("%s lowered to v%d: %v", name, v, err)
			}
		}
	}
	return cases
}

// devicePart is what format 4 carries of p.
func devicePart(p *Plan) *Plan {
	d := &Plan{Type: p.Type, Device: p.Device}
	d.Device.ReportEncoding = p.UplinkEncoding()
	d.Device.Model.Seed = 0
	return d
}

type codec struct {
	marshal          func(*Plan) ([]byte, error)
	unmarshal, other func([]byte) (*Plan, error)
}

var (
	planCodec   = codec{(*Plan).Marshal, Unmarshal, UnmarshalDevice}
	deviceCodec = codec{(*Plan).MarshalDevice, UnmarshalDevice, Unmarshal}
)

// TestMarshalRoundTrip: format 5 carries every field of the plan; format 4
// carries Type and every DevicePlan field but the model's seed, with the
// resolved uplink encoding in ReportEncoding, and ID, Population, the seed
// and every ServerPlan and RobustPolicy field read back zero. Each decoder
// refuses the other's bytes.
func TestMarshalRoundTrip(t *testing.T) {
	for name, p := range marshalCases(t) {
		for _, c := range []struct {
			codec
			want *Plan
		}{{planCodec, p}, {deviceCodec, devicePart(p)}} {
			b, err := c.marshal(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			name := fmt.Sprintf("%s/format %d", name, b[0])
			got, err := c.unmarshal(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: round trip changed the plan:\n in  %+v\n out %+v", name, c.want, got)
			}
			if _, err := c.other(b); err == nil {
				t.Errorf("%s: the other format's decoder accepted it", name)
			}
			for n := 0; n < len(b); n++ {
				if _, err := c.unmarshal(b[:n]); err == nil {
					t.Errorf("%s truncated to %d/%d bytes decoded cleanly", name, n, len(b))
				}
			}
			if _, err := c.unmarshal(append(b[:len(b):len(b)], 0)); err == nil {
				t.Errorf("%s with a trailing byte decoded cleanly", name)
			}
			// A device gives its receive buffer back right after Unmarshal, so
			// the plan may keep nothing that aliases the wire bytes.
			for i := range b {
				b[i] = 0xDB
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: the decoded plan aliases its wire bytes:\n in  %+v\n out %+v", name, c.want, got)
			}
		}
	}
}

// goldenPlan sets every field of Plan to a fixed non-zero value.
func goldenPlan() *Plan {
	return &Plan{
		ID: "pop/train-1", Population: "pop", Type: TaskTrain,
		Device: DevicePlan{
			Model:             nn.Spec{Kind: nn.KindMLP, Features: 4, Hidden: 8, Classes: 2, Vocab: 5, Embed: 6, Seed: 7},
			Ops:               []Op{OpLoadCheckpoint, OpSelectExamples, OpFusedTrainMetrics, OpSaveUpdate},
			Selection:         SelectionCriteria{StoreName: "clicks", MaxExamples: 100, MaxAge: time.Hour},
			BatchSize:         10,
			Epochs:            2,
			LearningRate:      0.1,
			ReportEncoding:    checkpoint.EncodingQuant8,
			MinRuntimeVersion: 3,
			ClipNorm:          2.5,
		},
		Server: ServerPlan{
			Aggregation: AggregationSecure, SecAggGroupSize: 16, SecAggThresholdFraction: 0.75,
			TargetDevices: 128, OverSelectFactor: 1.3, MinReportFraction: 0.8,
			SelectionTimeout: 2 * time.Minute, ReportTimeout: 3 * time.Minute, ParticipationCap: 4 * time.Minute,
			ReportEncoding: checkpoint.EncodingQuant8,
			Robust:         RobustPolicy{Kind: RobustNormBound, ClipNorm: 2.5, TrimFraction: 0.25, MaxCosineDistance: 0.5, QuantSafe: true},
		},
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current codecs")

// TestWireGolden pins both descriptor formats to the bytes in testdata: a
// change to any field's width, order or encoding fails it. Such a change
// bumps wireFormat or deviceFormat and regenerates the files with -update.
func TestWireGolden(t *testing.T) {
	for file, c := range map[string]codec{"plan_v5.golden": planCodec, "device_v4.golden": deviceCodec} {
		got, err := c.marshal(goldenPlan())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the codec's bytes moved:\n got  %x\n want %x", file, got, want)
		}
	}
}

// TestOldFormatsRefused: the golden plan in the fixed-width layouts that
// formats 3 and 4 replaced, and in format 3 that format 5 replaced, is
// refused by both decoders, not misread.
func TestOldFormatsRefused(t *testing.T) {
	for _, file := range []string{"plan_v1.golden", "device_v2.golden", "plan_v3.golden"} {
		b, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, unmarshal := range []func([]byte) (*Plan, error){Unmarshal, UnmarshalDevice} {
			if p, err := unmarshal(b); err == nil {
				t.Errorf("%s decoded as %+v", file, p)
			}
		}
	}
}

// TestDevicePlanBytes pins the descriptor sizes of the benchmark's plan
// shape (benchmark/workload.go): every device downloads the device plan once
// per session, so a byte here is a byte per device per round.
func TestDevicePlanBytes(t *testing.T) {
	p, err := Generate(Config{
		TaskID: "bench/round", Population: "bench",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "bench", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 128, OverSelectFactor: 1.0, SelectionTimeout: time.Minute, ReportTimeout: time.Minute,
		ReportEncoding: checkpoint.EncodingFloat64,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := p.MarshalDevice()
	full, _ := p.Marshal()
	if len(dev) != 42 || len(full) != 141 {
		t.Fatalf("device plan %d B, full plan %d B; want 42 and 141", len(dev), len(full))
	}
}

// spliced is the zero plan under format with the one-byte varint at index
// at replaced by v. Format 4 is format 5's first 32 bytes.
func spliced(format byte, at int, v ...byte) []byte {
	b, _ := (&Plan{}).Marshal()
	if b[0] = format; format == deviceFormat {
		b = b[:32]
	}
	return slices.Concat(b[:at], v, b[at+1:])
}

// hostilePlans promise more bytes than they hold, or carry a varint that is
// not canonical, behind a valid format byte.
var hostilePlans = [][]byte{
	spliced(wireFormat, 32, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),                                      // 4 GiB ID
	spliced(wireFormat, 33, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),                                      // 4 GiB Population
	spliced(deviceFormat, 9, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),                                     // 4 G ops
	spliced(deviceFormat, 9, 0x80),                                                             // ops count cut off
	spliced(deviceFormat, 4, 0x80, 0x00),                                                       // Features, zero in two bytes
	spliced(wireFormat, 13, 0x80, 0x00),                                                        // BatchSize, zero in two bytes
	spliced(deviceFormat, 4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), // 11 bytes
	spliced(deviceFormat, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02),       // past 64 bits
}

func TestUnmarshalGarbage(t *testing.T) {
	zero, _ := (&Plan{}).Marshal()
	zero[0] = wireFormat + 1
	for _, b := range append(hostilePlans, nil, []byte("not a plan"), zero) {
		for _, unmarshal := range []func([]byte) (*Plan, error){Unmarshal, UnmarshalDevice} {
			if _, err := unmarshal(b); err == nil {
				t.Fatalf("Unmarshal(%x) succeeded", b)
			}
		}
	}
}

// reportEncodingAt is ReportEncoding's offset in both formats: after the
// format byte and Type, ahead of any varint.
const reportEncodingAt = 2

// FuzzPlanUnmarshal: both decoders run on every input and never panic, and
// each accepts only its own format byte. An accepted format-5 plan re-encodes
// to its own bytes; the device section of any accepted plan — format 5 or
// 4 — re-encodes through MarshalDevice to exactly that section with the
// resolved uplink encoding, and decodes again. Format 5 begins with format
// 4's section, so its length is the device walk's: MarshalDevice's output.
func FuzzPlanUnmarshal(f *testing.F) {
	for _, p := range marshalCases(f) {
		for _, c := range []codec{planCodec, deviceCodec} {
			b, _ := c.marshal(p)
			f.Add(b)
			f.Add(b[:len(b)/2])
		}
	}
	for _, b := range hostilePlans {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		dp, derr := UnmarshalDevice(b)
		if err == nil && b[0] != wireFormat || derr == nil && b[0] != deviceFormat {
			t.Fatalf("a decoder accepted format byte %d", b[0])
		}
		if err != nil {
			p = dp
		}
		if err != nil && derr != nil {
			return
		}
		got, merr := p.MarshalDevice()
		if merr != nil || len(got) > len(b) {
			t.Fatalf("device section of %x re-encodes as %x, %v", b, got, merr)
		}
		end := len(b)
		if err == nil {
			again, err := p.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("accepted bytes are not canonical:\n in  %x\n out %x", b, again)
			}
			end = len(got)
		}
		want := append([]byte{deviceFormat}, b[1:end]...)
		want[reportEncodingAt] = byte(p.UplinkEncoding())
		if !bytes.Equal(got, want) {
			t.Fatalf("device section does not round-trip:\n in  %x\n out %x", want, got)
		}
		if _, err := UnmarshalDevice(got); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFusedOpsRequireNewRuntime(t *testing.T) {
	cfg := testConfig()
	cfg.UseFusedOps = true
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Device.MinRuntimeVersion != 3 {
		t.Fatalf("fused plan MinRuntimeVersion = %d, want 3", p.Device.MinRuntimeVersion)
	}
}

func TestForVersionIdentityWhenCompatible(t *testing.T) {
	p, _ := Generate(testConfig())
	q, err := p.ForVersion(5)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatal("compatible plan should be returned unchanged")
	}
}

func TestForVersionRewritesFusedOp(t *testing.T) {
	cfg := testConfig()
	cfg.UseFusedOps = true
	p, _ := Generate(cfg)
	q, err := p.ForVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{OpLoadCheckpoint, OpSelectExamples, OpTrain, OpComputeMetrics, OpSaveUpdate}
	if len(q.Device.Ops) != len(want) {
		t.Fatalf("rewritten ops = %v, want %v", q.Device.Ops, want)
	}
	for i := range want {
		if q.Device.Ops[i] != want[i] {
			t.Fatalf("rewritten ops = %v, want %v", q.Device.Ops, want)
		}
	}
	if q.Device.MinRuntimeVersion != 1 {
		t.Fatalf("rewritten MinRuntimeVersion = %d, want 1", q.Device.MinRuntimeVersion)
	}
	// Original untouched.
	if p.Device.Ops[2] != OpFusedTrainMetrics {
		t.Fatal("ForVersion must not mutate the source plan")
	}
}

func TestForVersionSemanticEquivalence(t *testing.T) {
	// "Versioned and unversioned plans must pass the same release tests" —
	// the op multiset after rewriting must cover the same computation.
	cfg := testConfig()
	cfg.UseFusedOps = true
	p, _ := Generate(cfg)
	q, _ := p.ForVersion(1)
	if err := q.Validate(); err != nil {
		t.Fatalf("versioned plan invalid: %v", err)
	}
	if q.Type != p.Type || q.Device.Epochs != p.Device.Epochs || q.Device.LearningRate != p.Device.LearningRate {
		t.Fatal("versioning must not change hyperparameters")
	}
}

func TestForVersionImpossible(t *testing.T) {
	cfg := testConfig()
	cfg.UseFusedOps = true
	p, _ := Generate(cfg)
	if _, err := p.ForVersion(0); err == nil {
		t.Fatal("version 0 supports nothing; expected error")
	}
}

func TestForVersionRewriteChainSubstituteTooNew(t *testing.T) {
	// A rewrite exists for the fused op, but the substitute ops it produces
	// are THEMSELVES newer than the target version ("a slightly smaller
	// number that cannot be fixed without complex workarounds"): ForVersion
	// must fail on the substitute check, not emit an unexecutable plan. The
	// plan is hand-built so the fused op is the first op encountered.
	p := &Plan{
		ID: "pop/chain", Population: "pop", Type: TaskTrain,
		Device: DevicePlan{
			Ops:               []Op{OpFusedTrainMetrics},
			MinRuntimeVersion: 3,
		},
	}
	_, err := p.ForVersion(0)
	if err == nil {
		t.Fatal("rewrite whose substitutes are too new must fail")
	}
	// The failure must blame the substitute op, proving the chain was
	// followed into the rewrite rather than rejected at the fused op.
	if !strings.Contains(err.Error(), "rewrite of fused_train_metrics") ||
		!strings.Contains(err.Error(), "train") {
		t.Fatalf("error must name the unsupported substitute op: %v", err)
	}
}

func TestForVersionIdempotent(t *testing.T) {
	// Lowering an already-lowered plan must be the identity: the rewritten
	// op sequence satisfies the target version, so no second rewrite (and
	// no drift) can occur no matter how often ForVersion runs.
	cfg := testConfig()
	cfg.UseFusedOps = true
	p, _ := Generate(cfg)
	q1, err := p.ForVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := q1.ForVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q1 {
		t.Fatal("ForVersion on an already-lowered plan must return it unchanged")
	}
	// A higher-but-still-satisfied version is also the identity.
	q3, err := q1.ForVersion(2)
	if err != nil {
		t.Fatal(err)
	}
	if q3 != q1 {
		t.Fatal("ForVersion above the lowered plan's requirement must be the identity")
	}
	// And repeated lowering from the source converges to the same ops.
	q4, err := p.ForVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(q4.Device.Ops) != fmt.Sprint(q1.Device.Ops) ||
		q4.Device.MinRuntimeVersion != q1.Device.MinRuntimeVersion {
		t.Fatalf("repeated lowering diverged: %v vs %v", q4.Device.Ops, q1.Device.Ops)
	}
}

func TestStringers(t *testing.T) {
	for op := OpLoadCheckpoint; op <= OpFusedTrainMetrics; op++ {
		if op.String() == "" {
			t.Fatalf("empty string for op %d", op)
		}
	}
	if Op(200).String() == "" || TaskTrain.String() != "train" || TaskEval.String() != "eval" {
		t.Fatal("stringer mismatch")
	}
	if AggregationSimple.String() != "simple" || AggregationSecure.String() != "secagg" {
		t.Fatal("aggregation stringer mismatch")
	}
}

func TestGenerateTimeoutsDefaulted(t *testing.T) {
	p, _ := Generate(testConfig())
	if p.Server.SelectionTimeout != 2*time.Minute || p.Server.ReportTimeout != 3*time.Minute {
		t.Fatalf("default timeouts: %v / %v", p.Server.SelectionTimeout, p.Server.ReportTimeout)
	}
}

// Property: any generated training plan lowered to any supported runtime
// version still validates and preserves its hyperparameters.
func TestForVersionProperty(t *testing.T) {
	for _, fused := range []bool{false, true} {
		for lr := 1; lr <= 3; lr++ {
			cfg := testConfig()
			cfg.UseFusedOps = fused
			cfg.LearningRate = float64(lr) / 10
			p, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := 1; v <= 4; v++ {
				q, err := p.ForVersion(v)
				if err != nil {
					t.Fatalf("fused=%v v=%d: %v", fused, v, err)
				}
				if err := q.Validate(); err != nil {
					t.Fatalf("lowered plan invalid: %v", err)
				}
				if q.Device.MinRuntimeVersion > v {
					t.Fatalf("lowered plan still requires %d > %d", q.Device.MinRuntimeVersion, v)
				}
				if q.Device.LearningRate != p.Device.LearningRate || q.Device.Epochs != p.Device.Epochs {
					t.Fatal("hyperparameters changed by versioning")
				}
			}
		}
	}
}

// TestDownlinkEncoding: the global model goes down in Quant8 exactly when a
// training task reports in Quant8 — whether the plan says so in
// Server.ReportEncoding, only in Device.ReportEncoding (a plan marshaled
// before the server field existed) or by Generate's default — under simple
// and secure aggregation and every robust policy that admits a Quant8
// uplink. Eval tasks, float64 tasks and per-update robust tasks that are not
// QuantSafe (Generate defaults those to float64 reports) are served float64.
// Combinations Validate refuses must stay refused.
func TestDownlinkEncoding(t *testing.T) {
	q8, f64 := checkpoint.EncodingQuant8, checkpoint.EncodingFloat64
	policies := []RobustPolicy{
		{},
		{Kind: RobustNormBound, ClipNorm: 1},
		{Kind: RobustTrimmedMean, TrimFraction: 0.25, QuantSafe: true},
		{Kind: RobustTrimmedMean, TrimFraction: 0.25},
	}
	for _, typ := range []TaskType{TaskTrain, TaskEval} {
		for _, enc := range []string{"quant8", "float64", "legacy_quant8", "default"} {
			for _, secure := range []bool{false, true} {
				for _, pol := range policies {
					name := fmt.Sprintf("%s/%s/secure=%v/%s/quant_safe=%v", typ, enc, secure, pol.Kind, pol.QuantSafe)
					cfg := testConfig()
					cfg.Type, cfg.SecureAggregation, cfg.Robust = typ, secure, pol
					switch enc {
					case "quant8", "legacy_quant8":
						cfg.ReportEncoding = q8
					case "float64":
						cfg.ReportEncoding = f64
					}
					exact := pol.PerUpdate() && !pol.QuantSafe
					refused := (typ == TaskEval && pol.Kind != RobustNone) ||
						(secure && pol.PerUpdate()) || (exact && cfg.ReportEncoding == q8)
					p, err := Generate(cfg)
					if (err != nil) != refused {
						t.Fatalf("%s: Generate error %v, want refused=%v", name, err, refused)
					}
					if refused {
						continue
					}
					if enc == "legacy_quant8" {
						p.Server.ReportEncoding = 0
						if err := p.Validate(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					want := f64
					if typ == TaskTrain && enc != "float64" && !exact {
						want = q8
					}
					if got := p.DownlinkEncoding(); got != want {
						t.Errorf("%s: DownlinkEncoding = %d, want %d", name, got, want)
					}
				}
			}
		}
	}
}
