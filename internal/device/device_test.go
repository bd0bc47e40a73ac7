package device

import (
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
)

var t0 = time.Date(2019, 3, 1, 2, 0, 0, 0, time.UTC)

func trainingPlan(t *testing.T, fused bool) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID:        "pop/train",
		Population:    "pop",
		Model:         nn.Spec{Kind: nn.KindLogistic, Features: 2, Classes: 2, Seed: 1},
		StoreName:     "clicks",
		BatchSize:     4,
		Epochs:        1,
		LearningRate:  0.1,
		TargetDevices: 10,
		UseFusedOps:   fused,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func globalCkpt(t *testing.T, p *plan.Plan) *checkpoint.Checkpoint {
	t.Helper()
	m, err := p.Device.Model.Build()
	if err != nil {
		t.Fatal(err)
	}
	params := make(tensor.Vector, m.NumParams())
	m.ReadParams(params)
	return &checkpoint.Checkpoint{TaskName: p.ID, Round: 3, Params: params}
}

func filledStore(t *testing.T) *MemStore {
	t.Helper()
	s, err := NewMemStore("clicks", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	for i := 0; i < 20; i++ {
		s.Add(nn.Example{X: []float64{rng.NormFloat64(), rng.NormFloat64()}, Y: i % 2}, t0)
	}
	return s
}

func TestMemStoreBasics(t *testing.T) {
	if _, err := NewMemStore("", 10, 0); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := NewMemStore("x", 0, 0); err == nil {
		t.Fatal("zero cap must fail")
	}
	s, _ := NewMemStore("x", 3, 0)
	for i := 0; i < 5; i++ {
		s.Add(nn.Example{Y: i}, t0)
	}
	if s.Count() != 3 {
		t.Fatalf("footprint cap violated: %d", s.Count())
	}
	got := s.Select(plan.SelectionCriteria{}, t0)
	if len(got) != 3 || got[0].Y != 4 {
		t.Fatalf("newest-first select: %+v", got)
	}
}

func TestMemStoreExpiration(t *testing.T) {
	s, _ := NewMemStore("x", 100, time.Hour)
	s.Add(nn.Example{Y: 1}, t0)
	s.Add(nn.Example{Y: 2}, t0.Add(90*time.Minute))
	got := s.Select(plan.SelectionCriteria{}, t0.Add(2*time.Hour))
	if len(got) != 1 || got[0].Y != 2 {
		t.Fatalf("expired entry survived: %+v", got)
	}
	if s.Count() != 1 {
		t.Fatalf("Count after prune = %d", s.Count())
	}
}

func TestMemStoreMaxAgeAndMaxExamples(t *testing.T) {
	s, _ := NewMemStore("x", 100, 0)
	for i := 0; i < 10; i++ {
		s.Add(nn.Example{Y: i}, t0.Add(time.Duration(i)*time.Minute))
	}
	now := t0.Add(10 * time.Minute)
	got := s.Select(plan.SelectionCriteria{MaxAge: 5 * time.Minute}, now)
	if len(got) != 5 {
		t.Fatalf("MaxAge select = %d examples, want 5", len(got))
	}
	got = s.Select(plan.SelectionCriteria{MaxExamples: 3}, now)
	if len(got) != 3 || got[0].Y != 9 {
		t.Fatalf("MaxExamples select: %+v", got)
	}
}

func TestEligibility(t *testing.T) {
	e := NewEligibility(Conditions{Idle: true, Charging: true, Unmetered: true})
	if !e.OK() {
		t.Fatal("should be eligible")
	}
	e.Set(Conditions{Idle: true, Charging: false, Unmetered: true})
	if e.OK() {
		t.Fatal("not charging should be ineligible")
	}
	for _, c := range []Conditions{
		{Idle: false, Charging: true, Unmetered: true},
		{Idle: true, Charging: true, Unmetered: false},
		{},
	} {
		if c.Eligible() {
			t.Fatalf("%+v should be ineligible", c)
		}
	}
}

func TestSchedulerFIFOAndNoOverlap(t *testing.T) {
	s := NewScheduler()
	var order []string
	for _, pop := range []string{"a", "b", "c"} {
		pop := pop
		if err := s.Enqueue(&Job{Population: pop, Run: func() { order = append(order, pop) }}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 3 {
		t.Fatalf("pending = %d", s.Pending())
	}
	n, err := s.DrainAll()
	if err != nil || n != 3 {
		t.Fatalf("drain: %d %v", n, err)
	}
	if strings.Join(order, "") != "abc" {
		t.Fatalf("order = %v", order)
	}
}

func TestSchedulerRejectsReentrantRun(t *testing.T) {
	s := NewScheduler()
	var innerErr error
	_ = s.Enqueue(&Job{Population: "outer", Run: func() {
		_ = s.Enqueue(&Job{Population: "inner", Run: func() {}})
		_, innerErr = s.RunNext()
	}})
	if _, err := s.RunNext(); err != nil {
		t.Fatal(err)
	}
	if innerErr == nil {
		t.Fatal("re-entrant RunNext must be rejected (no parallel sessions)")
	}
}

func TestSchedulerNilJob(t *testing.T) {
	s := NewScheduler()
	if err := s.Enqueue(nil); err == nil {
		t.Fatal("nil job must fail")
	}
	if err := s.Enqueue(&Job{Population: "x"}); err == nil {
		t.Fatal("job without Run must fail")
	}
}

func TestExecuteTrainingPlan(t *testing.T) {
	p := trainingPlan(t, false)
	r := NewRuntime("dev-1", 3, nil, 7)
	if err := r.RegisterStore(filledStore(t)); err != nil {
		t.Fatal(err)
	}
	global := globalCkpt(t, p)
	var log Log
	res, err := r.Execute(p, global, t0, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Update == nil {
		t.Fatal("training plan must produce an update")
	}
	if res.Update.Weight != 20 {
		t.Fatalf("update weight = %v, want 20", res.Update.Weight)
	}
	if res.Update.Round != 3 || res.Update.TaskName != p.ID {
		t.Fatalf("update metadata: %+v", res.Update)
	}
	if log.Shape() != "[]" {
		t.Fatalf("logged %q, want [] (the session logs the rest)", log.Shape())
	}
	if res.Metrics["num_examples"] != 20 {
		t.Fatalf("metrics: %+v", res.Metrics)
	}
}

func TestExecuteFusedPlanEquivalent(t *testing.T) {
	// A fused plan and its versioned rewrite must produce the same update
	// ("treated as semantically equivalent").
	fused := trainingPlan(t, true)
	lowered, err := fused.ForVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *plan.Plan, version int) *checkpoint.Checkpoint {
		r := NewRuntime("dev-1", version, nil, 7)
		_ = r.RegisterStore(filledStore(t))
		res, err := r.Execute(p, globalCkpt(t, p), t0, new(Log))
		if err != nil {
			t.Fatal(err)
		}
		return res.Update
	}
	a := run(fused, 3)
	b := run(lowered, 1)
	if len(a.Params) != len(b.Params) {
		t.Fatal("dim mismatch")
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			t.Fatal("fused and lowered plans must produce identical updates")
		}
	}
}

func TestExecuteRejectsNewPlanOnOldRuntime(t *testing.T) {
	p := trainingPlan(t, true) // needs version 3
	r := NewRuntime("dev-old", 1, nil, 7)
	_ = r.RegisterStore(filledStore(t))
	var log Log
	if _, err := r.Execute(p, globalCkpt(t, p), t0, &log); err == nil {
		t.Fatal("old runtime must reject fused plan")
	}
	if log.Shape() != "" {
		t.Fatalf("training started on a plan the runtime refused: %q", log.Shape())
	}
}

func TestExecuteInterruptedOnEligibilityLoss(t *testing.T) {
	p := trainingPlan(t, false)
	elig := NewEligibility(Conditions{Idle: true, Charging: true, Unmetered: true})
	r := NewRuntime("dev-1", 3, elig, 7)
	_ = r.RegisterStore(filledStore(t))

	// Lose eligibility before execution: every op checks first.
	elig.Set(Conditions{})
	var log Log
	res, err := r.Execute(p, globalCkpt(t, p), t0, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("must be interrupted")
	}
	if log.Shape() != "" {
		t.Fatalf("training started while ineligible: %q", log.Shape())
	}
}

func TestExecuteMissingStore(t *testing.T) {
	p := trainingPlan(t, false)
	r := NewRuntime("dev-1", 3, nil, 7)
	if _, err := r.Execute(p, globalCkpt(t, p), t0, new(Log)); err == nil {
		t.Fatal("missing store must fail")
	}
}

func TestExecuteEmptyStore(t *testing.T) {
	p := trainingPlan(t, false)
	r := NewRuntime("dev-1", 3, nil, 7)
	empty, _ := NewMemStore("clicks", 10, 0)
	_ = r.RegisterStore(empty)
	if _, err := r.Execute(p, globalCkpt(t, p), t0, new(Log)); err == nil {
		t.Fatal("empty store must fail")
	}
}

func TestExecuteBadCheckpoint(t *testing.T) {
	p := trainingPlan(t, false)
	r := NewRuntime("dev-1", 3, nil, 7)
	_ = r.RegisterStore(filledStore(t))
	bad := &checkpoint.Checkpoint{TaskName: p.ID, Params: tensor.Vector{1, 2, 3}}
	if _, err := r.Execute(p, bad, t0, new(Log)); err == nil {
		t.Fatal("dim-mismatched checkpoint must fail")
	}
}

func TestExecuteEvalPlan(t *testing.T) {
	cfg := plan.Config{
		TaskID:        "pop/eval",
		Population:    "pop",
		Type:          plan.TaskEval,
		Model:         nn.Spec{Kind: nn.KindLogistic, Features: 2, Classes: 2, Seed: 1},
		StoreName:     "clicks",
		TargetDevices: 10,
	}
	p, err := plan.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRuntime("dev-1", 3, nil, 7)
	_ = r.RegisterStore(filledStore(t))
	res, err := r.Execute(p, globalCkpt(t, p), t0, new(Log))
	if err != nil {
		t.Fatal(err)
	}
	if res.Update != nil {
		t.Fatal("eval plan must not produce an update")
	}
	if _, ok := res.Metrics["eval_accuracy"]; !ok {
		t.Fatalf("eval metrics missing: %+v", res.Metrics)
	}
}

func TestRegisterStoreDuplicate(t *testing.T) {
	r := NewRuntime("dev-1", 3, nil, 7)
	s, _ := NewMemStore("x", 10, 0)
	if err := r.RegisterStore(s); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterStore(s); err == nil {
		t.Fatal("duplicate store must fail")
	}
}

// TestExecuteClipsUpdateWhenPlanAsks: a plan carrying Device.ClipNorm (the
// norm_bound robust policy's client-side mirror) must bound the saved
// update's per-example-average L2 norm, and the clipped update must be the
// unclipped one scaled — same direction, bounded magnitude.
func TestExecuteClipsUpdateWhenPlanAsks(t *testing.T) {
	run := func(clip float64) *checkpoint.Checkpoint {
		p := trainingPlan(t, false)
		p.Device.ClipNorm = clip
		r := NewRuntime("dev-1", 3, nil, 7)
		if err := r.RegisterStore(filledStore(t)); err != nil {
			t.Fatal(err)
		}
		res, err := r.Execute(p, globalCkpt(t, p), t0, new(Log))
		if err != nil {
			t.Fatal(err)
		}
		if res.Update == nil {
			t.Fatal("no update")
		}
		return res.Update
	}
	free := run(0)
	freeNorm := free.Params.Norm2() / free.Weight
	if freeNorm <= 0 {
		t.Fatal("unclipped update has zero norm; clip test needs signal")
	}
	clip := freeNorm / 4
	clipped := run(clip)
	if clipped.Weight != free.Weight {
		t.Fatalf("clipping changed weight: %v vs %v", clipped.Weight, free.Weight)
	}
	gotNorm := clipped.Params.Norm2() / clipped.Weight
	if gotNorm > clip*(1+1e-12) {
		t.Fatalf("clipped norm %v exceeds bound %v", gotNorm, clip)
	}
	scale := clip / freeNorm
	for i := range free.Params {
		want := free.Params[i] * scale
		if diff := want - clipped.Params[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("param %d: clipped %v, want scaled %v", i, clipped.Params[i], want)
		}
	}
	// A generous bound leaves the update untouched.
	loose := run(freeNorm * 2)
	for i := range free.Params {
		if loose.Params[i] != free.Params[i] {
			t.Fatal("under-bound update must not be modified")
		}
	}
}
