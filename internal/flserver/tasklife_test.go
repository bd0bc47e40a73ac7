package flserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
)

// testEvalPlan builds an evaluation task for the shared "pop" population.
func testEvalPlan(t *testing.T, target int) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: "pop/eval", Population: "pop", Type: plan.TaskEval,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", TargetDevices: target, MinReportFraction: 0.6,
		SelectionTimeout: 2 * time.Second, ReportTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// taskStatsByID fetches TaskStats keyed by task ID.
func taskStatsByID(t *testing.T, srv *Server) map[string]tasks.Stats {
	t.Helper()
	sts, err := srv.TaskStats()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]tasks.Stats, len(sts))
	for _, st := range sts {
		out[st.ID] = st
	}
	return out
}

// waitTaskRounds runs the rig until the task has committed at least n
// rounds.
func waitTaskRounds(t *testing.T, r *rig, id string, n int) tasks.Stats {
	t.Helper()
	var st tasks.Stats
	r.until(t, fmt.Sprintf("task %s to commit %d rounds", id, n), func() bool {
		st = taskStatsByID(t, r.srv)[id]
		return st.RoundsCommitted >= n
	})
	return st
}

// checkpointCountingStore records PutCheckpoint calls per task, so a test
// can prove eval rounds never write a checkpoint.
type checkpointCountingStore struct {
	storage.Store
	mu      sync.Mutex
	puts    map[string]int
	lastPut map[string]int64
}

func newCountingStore() *checkpointCountingStore {
	return &checkpointCountingStore{
		Store: storage.NewMem(), puts: map[string]int{}, lastPut: map[string]int64{},
	}
}

func (s *checkpointCountingStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	s.mu.Lock()
	s.puts[c.TaskName]++
	s.lastPut[c.TaskName] = c.Round
	s.mu.Unlock()
	return s.Store.PutCheckpoint(c)
}

func (s *checkpointCountingStore) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.puts))
	for k, v := range s.puts {
		out[k] = v
	}
	return out
}

// TestSubmitEvalTaskOnLiveServer is the acceptance test for the task
// lifecycle API: a live Server accepts SubmitTask of an eval task while
// training rounds are in flight, interleaves it per its cadence within 2
// committed rounds, reports both via TaskStats, never advances the train
// checkpoint from an eval round, and RetireTask stops scheduling the eval
// task without aborting the round in progress.
func TestSubmitEvalTaskOnLiveServer(t *testing.T) {
	fed, err := data.Blobs(data.BlobsConfig{
		Users: 20, ExamplesPer: 30, Features: 4, Classes: 3, TestSize: 50, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := newCountingStore()
	train := testPlan(t, 6, false)
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{train}, Store: store,
		Steering: pacing.New(500 * time.Millisecond), Seed: 61,
	})
	fl := newFleet(t, 20, fed, 3)
	fl.run(r, r.dial)
	defer fl.halt()

	// Let training get in flight, then deploy the eval task onto the live
	// population: evaluate the train task's checkpoint after every
	// committed train round.
	waitTaskRounds(t, r, train.ID, 1)
	eval := testEvalPlan(t, 4)
	if err := r.srv.SubmitTask(eval, tasks.Policy{EvalEvery: 1, EvalOf: train.ID}); err != nil {
		t.Fatal(err)
	}

	// Resubmitting the same task ID onto the live server must fail.
	if err := r.srv.SubmitTask(testEvalPlan(t, 4), tasks.Policy{}); err == nil {
		t.Fatal("duplicate live SubmitTask must be rejected")
	}

	// The eval task must interleave within 2 committed rounds of submission
	// and keep pace with the cadence thereafter.
	evalSt := waitTaskRounds(t, r, eval.ID, 2)
	trainSt := taskStatsByID(t, r.srv)[train.ID]
	if trainSt.RoundsCommitted < 2 {
		t.Fatalf("training stalled while eval ran: %+v", trainSt)
	}
	if evalSt.State != tasks.Active || evalSt.Type != plan.TaskEval {
		t.Fatalf("eval task stats = %+v", evalSt)
	}
	if evalSt.Devices == 0 || evalSt.LastRoundAt.IsZero() {
		t.Fatalf("eval task stats missing devices/last-round time: %+v", evalSt)
	}

	// Eval rounds serve the train checkpoint read-only: no checkpoint was
	// ever committed under the eval task's ID, and eval metrics were
	// materialized under the eval task.
	if n := store.counts()[eval.ID]; n != 0 {
		t.Fatalf("eval task committed %d checkpoints; eval must never advance model state", n)
	}
	if ms, err := store.Metrics(eval.ID); err != nil || len(ms) == 0 {
		t.Fatalf("eval rounds materialized no metrics: %d, %v", len(ms), err)
	}

	// Retire the eval task mid-flight: whatever round is in progress (train
	// or eval) completes — total committed rounds keep growing — and the
	// eval task never reschedules.
	if err := r.srv.RetireTask(eval.ID); err != nil {
		t.Fatal(err)
	}
	retiredAt := taskStatsByID(t, r.srv)[eval.ID]
	if retiredAt.State != tasks.Retired {
		t.Fatalf("retired task state = %v", retiredAt.State)
	}
	waitTaskRounds(t, r, train.ID, trainSt.RoundsCommitted+2)
	finalEval := taskStatsByID(t, r.srv)[eval.ID]
	if finalEval.RoundsCommitted > retiredAt.RoundsCommitted+1 {
		t.Fatalf("retired eval task kept scheduling: %d -> %d committed rounds",
			retiredAt.RoundsCommitted, finalEval.RoundsCommitted)
	}
	if err := r.srv.ResumeTask(eval.ID); err == nil {
		t.Fatal("resume of a retired task must fail")
	}

	// The train lineage advanced only through train commits.
	ckpt, err := store.LatestCheckpoint(train.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.TaskName != train.ID || ckpt.Round < 4 {
		t.Fatalf("train checkpoint = %+v", ckpt)
	}
}

func TestPauseAndResumeTaskOnLiveServer(t *testing.T) {
	fed, _ := data.Blobs(data.BlobsConfig{Users: 12, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 52})
	store := storage.NewMem()
	train := testPlan(t, 4, false)
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{train}, Store: store,
		Steering: pacing.New(500 * time.Millisecond), Seed: 62,
	})
	fl := newFleet(t, 12, fed, 3)
	fl.run(r, r.dial)
	defer fl.halt()

	waitTaskRounds(t, r, train.ID, 1)
	if err := r.srv.PauseTask(train.ID); err != nil {
		t.Fatal(err)
	}
	// The in-flight round may still commit; after it settles, no further
	// rounds are scheduled.
	r.pass(t, 300*time.Millisecond)
	settled := taskStatsByID(t, r.srv)[train.ID]
	if settled.State != tasks.Paused {
		t.Fatalf("state after pause = %v", settled.State)
	}
	r.pass(t, 700*time.Millisecond)
	after := taskStatsByID(t, r.srv)[train.ID]
	if after.RoundsCommitted > settled.RoundsCommitted+1 {
		t.Fatalf("paused task kept committing: %d -> %d", settled.RoundsCommitted, after.RoundsCommitted)
	}

	// Resume schedules again without any external kick (the lifecycle op
	// itself ticks the Coordinator).
	if err := r.srv.ResumeTask(train.ID); err != nil {
		t.Fatal(err)
	}
	waitTaskRounds(t, r, train.ID, after.RoundsCommitted+2)
}

func TestTaskSetSurvivesCoordinatorCrash(t *testing.T) {
	fed, _ := data.Blobs(data.BlobsConfig{Users: 12, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 53})
	store := storage.NewMem()
	train := testPlan(t, 4, false)
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{train}, Store: store,
		Steering: pacing.New(500 * time.Millisecond), Seed: 63,
	})
	fl := newFleet(t, 12, fed, 3)
	fl.run(r, r.dial)
	defer fl.halt()

	waitTaskRounds(t, r, train.ID, 1)
	eval := testEvalPlan(t, 4)
	if err := r.srv.SubmitTask(eval, tasks.Policy{EvalEvery: 1, EvalOf: train.ID}); err != nil {
		t.Fatal(err)
	}
	before := taskStatsByID(t, r.srv)[train.ID]

	// Crash the Coordinator: the respawned one must drive the SAME task
	// set — the submitted eval task keeps running, stats keep accumulating.
	first := r.srv.Coordinator()
	_ = first.Send(msgCrash{})
	r.until(t, "the coordinator to be respawned", func() bool { return r.srv.Coordinator() != first })
	waitTaskRounds(t, r, eval.ID, 1)
	after := taskStatsByID(t, r.srv)
	if after[train.ID].RoundsCommitted < before.RoundsCommitted {
		t.Fatalf("train stats regressed across respawn: %+v -> %+v", before, after[train.ID])
	}
	if len(after) != 2 {
		t.Fatalf("task registry lost tasks across respawn: %v", after)
	}
}

func TestEvalWithUncommittedBaseDoesNotStallPopulation(t *testing.T) {
	// An eval task whose base train task has never committed a checkpoint
	// fails to load its round state. That failure must not stall the
	// Coordinator: the tick is retried on a backoff, and because a failed
	// eval is not immediately due again, the healthy train task keeps
	// committing rounds.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 12, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 56})
	store := storage.NewMem()
	trainA := testPlan(t, 4, false)
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{trainA}, Store: store,
		Steering: pacing.New(500 * time.Millisecond), Seed: 66,
	})
	fl := newFleet(t, 12, fed, 3)
	fl.run(r, r.dial)
	defer fl.halt()

	// A second train task gated off by MinDevices: it exists (so EvalOf
	// validates) but never schedules, so it never commits a checkpoint.
	gatedCfg := plan.Config{
		TaskID: "pop/gated", Population: "pop",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 10, Epochs: 1, LearningRate: 0.05,
		TargetDevices: 4, MinReportFraction: 0.6,
		SelectionTimeout: 2 * time.Second, ReportTimeout: 5 * time.Second,
	}
	gated, err := plan.Generate(gatedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.srv.SubmitTask(gated, tasks.Policy{MinDevices: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	eval := testEvalPlan(t, 4)
	if err := r.srv.SubmitTask(eval, tasks.Policy{EvalEvery: 1, EvalOf: gated.ID}); err != nil {
		t.Fatal(err)
	}

	// Training must keep committing across repeated eval load failures.
	waitTaskRounds(t, r, trainA.ID, 4)
	sts := taskStatsByID(t, r.srv)
	if sts[eval.ID].RoundsCommitted != 0 {
		t.Fatalf("eval with uncommitted base committed a round: %+v", sts[eval.ID])
	}
	if sts[eval.ID].RoundsFailed == 0 {
		t.Fatalf("eval load failures were not recorded: %+v", sts[eval.ID])
	}
}

func TestServerRejectsDuplicatePlanIDs(t *testing.T) {
	// Regression: duplicate plan IDs in Config.Plans used to be accepted
	// silently and collide in the Coordinator's per-task checkpoint map.
	p := testPlan(t, 4, false)
	q := testPlan(t, 8, false) // same ID, different config
	if _, err := New(Config{
		Population: "pop", Plans: []*plan.Plan{p, q}, Store: storage.NewMem(),
		Steering: pacing.New(time.Second),
	}); err == nil {
		t.Fatal("duplicate plan IDs must be rejected at construction")
	}
}

func TestServerWithNoPlansIdlesUntilSubmit(t *testing.T) {
	// Plans is now sugar: a server may start empty and receive its first
	// task at runtime.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 12, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 54})
	r := runServer(t, Config{
		Population: "pop", Store: storage.NewMem(),
		Steering: pacing.New(500 * time.Millisecond), Seed: 64,
	})
	if sts, err := r.srv.TaskStats(); err != nil || len(sts) != 0 {
		t.Fatalf("empty server task stats = %v, %v", sts, err)
	}
	fl := newFleet(t, 12, fed, 3)
	fl.run(r, r.dial)
	defer fl.halt()

	train := testPlan(t, 4, false)
	if err := r.srv.SubmitTask(train, tasks.Policy{}); err != nil {
		t.Fatal(err)
	}
	waitTaskRounds(t, r, train.ID, 2)
}

func TestTaskPolicyMinRuntimeVersionRejectsOldDevices(t *testing.T) {
	// A policy runtime floor must reject old devices outright — even though
	// plan versioning COULD lower the plan for them — so rounds complete
	// only when enough new-runtime devices exist.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 12, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 55})
	store := storage.NewMem()
	train := testPlan(t, 4, false)
	r := runServer(t, Config{
		Population: "pop", Store: store,
		Steering: pacing.New(500 * time.Millisecond), Seed: 65,
	})
	if err := r.srv.SubmitTask(train, tasks.Policy{MinRuntimeVersion: 3}); err != nil {
		t.Fatal(err)
	}
	// Version-1 devices only: every configured device is rejected, no
	// round can commit.
	oldFleet := newFleet(t, 12, fed, 1)
	oldFleet.run(r, r.dial)
	r.pass(t, 1500*time.Millisecond)
	oldFleet.halt()
	if st := taskStatsByID(t, r.srv)[train.ID]; st.RoundsCommitted != 0 {
		t.Fatalf("old-runtime fleet committed %d rounds under a version floor", st.RoundsCommitted)
	}

	// A version-3 fleet clears the floor.
	newRt := newFleet(t, 12, fed, 3)
	newRt.run(r, r.dial)
	defer newRt.halt()
	waitTaskRounds(t, r, train.ID, 1)
}
