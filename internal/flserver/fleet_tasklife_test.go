package flserver

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
)

func makeEvalPlan(t *testing.T, pop string, target int) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: pop + "/eval", Population: pop, Type: plan.TaskEval,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: pop + "-store", TargetDevices: target, MinReportFraction: 0.7,
		SelectionTimeout: 10 * time.Second, ReportTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fleetTaskStats fetches one population's task stats keyed by ID.
func fleetTaskStats(t *testing.T, f *Fleet, pop string) map[string]tasks.Stats {
	t.Helper()
	sts, err := f.TaskStats(pop)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]tasks.Stats, len(sts))
	for _, st := range sts {
		out[st.ID] = st
	}
	return out
}

// TestFleetTaskLifecycle drives the population-keyed task API end to end:
// an eval task is submitted onto a live fleet population mid-training,
// interleaves per its cadence, reports via TaskStats, and is retired
// without disturbing training.
func TestFleetTaskLifecycle(t *testing.T) {
	clock := newWatchedClock()
	f := NewFleet(FleetConfig{Seed: 7, Clock: clock})
	defer f.Close()
	dial := serveFleet(t, clock, f)

	const pop = "gamma"
	train := makePlan(t, pop, 3)
	fed, err := data.Blobs(data.BlobsConfig{Users: 9, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Register(PopulationSpec{
		Population: pop, Plans: []*plan.Plan{train},
		Store: storage.NewMem(), Steering: pacing.New(500 * time.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	defer runPopDevices(t, clock, pop, 9, fed, dial).halt()

	// Lifecycle calls against unknown populations fail loudly.
	if err := f.SubmitTask("nope", makeEvalPlan(t, pop, 2), tasks.Policy{}); err == nil {
		t.Fatal("SubmitTask on an unknown population must fail")
	}
	if _, err := f.TaskStats("nope"); err == nil {
		t.Fatal("TaskStats on an unknown population must fail")
	}

	waitRounds := func(id string, n int) tasks.Stats {
		t.Helper()
		var st tasks.Stats
		clock.until(t, fmt.Sprintf("task %s to commit %d rounds", id, n), func() bool {
			st = fleetTaskStats(t, f, pop)[id]
			return st.RoundsCommitted >= n
		})
		return st
	}

	waitRounds(train.ID, 1)
	eval := makeEvalPlan(t, pop, 2)
	if err := f.SubmitTask(pop, eval, tasks.Policy{EvalEvery: 1, EvalOf: train.ID}); err != nil {
		t.Fatal(err)
	}
	waitRounds(eval.ID, 2)

	if err := f.PauseTask(pop, eval.ID); err != nil {
		t.Fatal(err)
	}
	if st := fleetTaskStats(t, f, pop)[eval.ID]; st.State != tasks.Paused {
		t.Fatalf("eval state after pause = %v", st.State)
	}
	if err := f.ResumeTask(pop, eval.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.RetireTask(pop, eval.ID); err != nil {
		t.Fatal(err)
	}
	retired := fleetTaskStats(t, f, pop)[eval.ID]
	if retired.State != tasks.Retired {
		t.Fatalf("eval state after retire = %v", retired.State)
	}

	// Training keeps going after the eval task is gone.
	trainSt := fleetTaskStats(t, f, pop)[train.ID]
	waitRounds(train.ID, trainSt.RoundsCommitted+2)
	final := fleetTaskStats(t, f, pop)[eval.ID]
	if final.RoundsCommitted > retired.RoundsCommitted+1 {
		t.Fatalf("retired eval task kept scheduling: %d -> %d", retired.RoundsCommitted, final.RoundsCommitted)
	}
}

// TestFleetRegisterRejectsDuplicatePlanIDs is the fleet-side regression
// for silently colliding task IDs.
func TestFleetRegisterRejectsDuplicatePlanIDs(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 8})
	defer f.Close()
	p := makePlan(t, "dup", 3)
	q := makePlan(t, "dup", 5) // same ID, different config
	if err := f.Register(PopulationSpec{
		Population: "dup", Plans: []*plan.Plan{p, q}, Store: storage.NewMem(),
	}); err == nil {
		t.Fatal("duplicate plan IDs must be rejected at Register")
	}
	// The failed registration must not leave a ghost population behind.
	if _, ok := f.coordinator("dup"); ok {
		t.Fatal("failed Register left a coordinator behind")
	}
	if err := f.Register(PopulationSpec{
		Population: "dup", Plans: []*plan.Plan{p}, Store: storage.NewMem(),
	}); err != nil {
		t.Fatalf("re-register after rejected duplicate: %v", err)
	}
}
