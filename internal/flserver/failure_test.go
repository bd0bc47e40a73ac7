package flserver

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// metricLog records the round of every PutMetrics: a store keeps each
// task's newest metrics only, so a test that counts materialized rounds
// counts them here.
type metricLog struct {
	storage.Store
	mu     sync.Mutex
	rounds map[string][]int64
}

func newMetricLog() *metricLog {
	return &metricLog{Store: storage.NewMem(), rounds: map[string][]int64{}}
}

func (s *metricLog) PutMetrics(m *metrics.Materialized) error {
	s.mu.Lock()
	s.rounds[m.TaskName] = append(s.rounds[m.TaskName], m.Round)
	s.mu.Unlock()
	return s.Store.PutMetrics(m)
}

// materialized returns the rounds task's metrics were put for, in order.
func (s *metricLog) materialized(task string) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.rounds[task]...)
}

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

// TestFailedCommitRepaysItsLoan: a round that fails after the Coordinator
// adopted a seal's vector — too few reports survived, or the store refused
// the checkpoint — hands that vector back, zeroed, to the stock that lent
// it, and the head stays the model served; the good round after them takes
// no fresh vector, and its commit repays with the model it supersedes.
func TestFailedCommitRepaysItsLoan(t *testing.T) {
	const dim = 8
	p := testPlan(t, 4, false) // MinReports 2
	held := &heldStore{Mem: storage.NewMem()}
	if err := held.PutCheckpoint(&checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}); err != nil {
		t.Fatal(err)
	}
	initial := held.head
	store := &failingStore{Store: held, failures: 1}
	ts, err := tasks.New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Seed([]*plan.Plan{p}, simStart); err != nil {
		t.Fatal(err)
	}
	edge := &stripeEdge{opened: make(chan *EdgeRoundConfig, 1)}
	outcomes := make(chan roundOutcome, 1)
	sys := actor.NewSystem()
	defer sys.Shutdown()
	coord := sys.Spawn("coordinator/pop", newCoordinator(CoordinatorParams{
		Population: "pop", Lock: actor.NewLockService(), Store: store, Tasks: ts,
		Edges: []Edge{edge}, MaxRounds: 1, onOutcome: func(out roundOutcome) { outcomes <- out },
	}))
	if err := coord.Send(msgTick{}); err != nil {
		t.Fatal(err)
	}

	var stock fedavg.Spares
	// round runs one round whose one stripe folds reports unit updates and
	// returns its outcome, the vector its seal handed over and the model
	// it served.
	round := func(reports int) (roundOutcome, tensor.Vector, tensor.Vector) {
		var cfg *EdgeRoundConfig
		select {
		case cfg = <-edge.opened:
		case <-time.After(10 * time.Second):
			t.Fatal("no round opened")
		}
		stripe := stock.NewPartial(dim)
		for d := 0; d < reports; d++ {
			if err := stripe.Accumulate(1, nil, func(sum tensor.Vector) error {
				for j := range sum {
					sum[j] += float64(j - d)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		seal, err := fedavg.SealStripes([]*fedavg.PartialAccumulator{stripe})
		if err != nil {
			t.Fatal(err)
		}
		if err := DeliverSeal(coord, edge, EdgeSeal{TaskID: p.ID, Round: cfg.Round, Seal: seal}); err != nil {
			t.Fatal(err)
		}
		select {
		case out := <-outcomes:
			return out, seal.Sum, cfg.Global.Params
		case <-time.After(10 * time.Second):
			t.Fatal("the round never settled")
		}
		return roundOutcome{}, nil, nil
	}
	// back checks that the stock's next vector is v, zeroed, and leaves it
	// there.
	back := func(what string, v tensor.Vector) {
		t.Helper()
		got := stock.Take(dim)
		if &got[0] != &v[0] {
			t.Fatalf("%s is not back in its stock", what)
		}
		for j, x := range got {
			if x != 0 {
				t.Fatalf("%s went back unzeroed: [%d]=%v", what, j, x)
			}
		}
		stock.Put(got)
	}

	out, adopted, _ := round(1)
	if out.Committed != nil || held.head != initial {
		t.Fatalf("a round of 1 report (min 2) committed: %+v", out)
	}
	back("a short round's adopted vector", adopted)
	out, sum, _ := round(3)
	if &sum[0] != &adopted[0] {
		t.Fatal("the round after a short one took a fresh vector")
	}
	if out.Committed != nil || held.head != initial || store.seen != 1 {
		t.Fatalf("a round the store refused committed: %+v (%d puts)", out, store.seen)
	}
	back("a refused commit's stepped vector", adopted)
	out, sum, served := round(3)
	if &sum[0] != &adopted[0] {
		t.Fatal("the round after a refused commit took a fresh vector")
	}
	if out.Committed == nil || held.head != out.Committed || &out.Committed.Params[0] != &adopted[0] {
		t.Fatalf("the good round did not commit its adopted vector: %+v", out)
	}
	for j, x := range out.Committed.Params {
		if want := float64(3*j-3) * (1.0 / 3); x != want {
			t.Fatalf("committed [%d]=%v, want %v", j, x, want)
		}
	}
	back("the superseded model", served)
}
