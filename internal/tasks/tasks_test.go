package tasks

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/wire/wiretest"
)

// t0 is the submission time the tests stamp.
var t0 = time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)

func trainPlan(t *testing.T, id string) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: id, Population: "pop",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 10, Epochs: 1, LearningRate: 0.05,
		TargetDevices: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func evalPlan(t *testing.T, id string) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: id, Population: "pop", Type: plan.TaskEval,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", TargetDevices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newSet(t *testing.T) *TaskSet {
	t.Helper()
	ts, err := New("pop", nil)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// commitTrainRound simulates the Coordinator committing one round for the
// task Next returned.
func commitTrainRound(ts *TaskSet, tk Task, round int64) {
	ts.NoteCommitted(tk.Plan.ID, round, tk.Plan.Server.TargetDevices, time.Unix(round, 0))
}

func TestSeedRejectsDuplicateIDs(t *testing.T) {
	ts := newSet(t)
	p := trainPlan(t, "pop/train")
	if err := ts.Seed([]*plan.Plan{p, trainPlan(t, "pop/train")}, t0); err == nil {
		t.Fatal("duplicate plan IDs must be rejected")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("unhelpful duplicate error: %v", err)
	}
}

func TestSubmitRejectsDuplicateAndWrongPopulation(t *testing.T) {
	ts := newSet(t)
	p := trainPlan(t, "pop/train")
	if err := ts.Submit(p, Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "pop/train"), Policy{}, t0); err == nil {
		t.Fatal("resubmitting an existing task ID must fail")
	}
	// Retired IDs stay reserved: their checkpoint lineage exists in storage.
	if err := ts.Retire("pop/train"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "pop/train"), Policy{}, t0); err == nil {
		t.Fatal("a retired task's ID must stay reserved")
	}
	other := trainPlan(t, "other/train")
	other.Population = "other"
	if err := ts.Submit(other, Policy{}, t0); err == nil {
		t.Fatal("population mismatch must fail")
	}
}

func TestWeightedRoundRobinHonorsWeights(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "a"), Policy{Weight: 3}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "b"), Policy{Weight: 1}, t0); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		tk, ok := ts.Next()
		if !ok {
			t.Fatal("nothing schedulable")
		}
		counts[tk.Plan.ID]++
		commitTrainRound(ts, tk, int64(i))
	}
	if counts["a"] != 30 || counts["b"] != 10 {
		t.Fatalf("weight-3 vs weight-1 split = %v, want 30/10", counts)
	}
}

func TestEvalCadenceInterleavesWithTraining(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "train"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(evalPlan(t, "eval"), Policy{EvalEvery: 2}, t0); err != nil {
		t.Fatal(err)
	}
	var seq []string
	for i := 0; i < 12; i++ {
		tk, ok := ts.Next()
		if !ok {
			t.Fatal("nothing schedulable")
		}
		seq = append(seq, tk.Plan.ID)
		commitTrainRound(ts, tk, int64(i))
	}
	// Eval runs after every 2 committed train rounds: t t e t t e ...
	want := []string{"train", "train", "eval", "train", "train", "eval", "train", "train", "eval", "train", "train", "eval"}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("schedule = %v, want %v", seq, want)
	}
	st, _ := ts.StatsFor("eval")
	if st.Policy.EvalOf != "train" {
		t.Fatalf("eval task must default EvalOf to the first train task, got %q", st.Policy.EvalOf)
	}
}

func TestFailedEvalRoundRearmsAfterOneTrainCommit(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "train"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(evalPlan(t, "eval"), Policy{EvalEvery: 3}, t0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tk, _ := ts.Next()
		if tk.Plan.ID != "train" {
			t.Fatalf("round %d: got %s", i, tk.Plan.ID)
		}
		commitTrainRound(ts, tk, int64(i))
	}
	tk, _ := ts.Next()
	if tk.Plan.ID != "eval" {
		t.Fatalf("eval should be due after 3 train commits, got %s", tk.Plan.ID)
	}
	ts.NoteFailed("eval")
	// A failed eval must NOT be immediately due again (a persistently
	// failing eval would starve training); it retries after ONE more train
	// commit instead of waiting out the full cadence.
	tk, _ = ts.Next()
	if tk.Plan.ID != "train" {
		t.Fatalf("after an eval failure training must proceed, got %s", tk.Plan.ID)
	}
	commitTrainRound(ts, tk, 3)
	tk, _ = ts.Next()
	if tk.Plan.ID != "eval" {
		t.Fatalf("failed eval must retry after one train commit, got %s", tk.Plan.ID)
	}
}

// failingTaskStore rejects task-set snapshots; the embedded Store serves
// everything else.
type failingTaskStore struct {
	storage.Store
	fail bool
}

func (s *failingTaskStore) PutTaskSet(b []byte) error {
	if s.fail {
		return fmt.Errorf("injected task-set persist failure")
	}
	return s.Store.PutTaskSet(b)
}

func TestFailedPersistRollsMutationBack(t *testing.T) {
	store := &failingTaskStore{Store: storage.NewMem()}
	ts, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "a"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	store.fail = true
	if err := ts.Submit(trainPlan(t, "b"), Policy{}, t0); err == nil {
		t.Fatal("submit must surface the persist failure")
	}
	if ts.Len() != 1 {
		t.Fatalf("unpersisted submit left the task behind: %d tasks", ts.Len())
	}
	if err := ts.Pause("a"); err == nil {
		t.Fatal("pause must surface the persist failure")
	}
	if st, _ := ts.StatsFor("a"); st.State != Active {
		t.Fatalf("errored pause took effect: %v", st.State)
	}
	// Recovery: once storage heals, the same mutations succeed.
	store.fail = false
	if err := ts.Submit(trainPlan(t, "b"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Pause("a"); err != nil {
		t.Fatal(err)
	}
}

func TestSeedRejectsChangedPlanUnderRestoredID(t *testing.T) {
	store := storage.NewMem()
	ts, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Seed([]*plan.Plan{trainPlan(t, "pop/train")}, t0); err != nil {
		t.Fatal(err)
	}
	// Restart with the identical plan: fine, persisted state kept.
	ts2, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts2.Seed([]*plan.Plan{trainPlan(t, "pop/train")}, t0); err != nil {
		t.Fatal(err)
	}
	// Restart with a CHANGED plan under the same ID: silently keeping the
	// old plan would mislead the operator — it must error.
	changed := trainPlan(t, "pop/train")
	changed.Device.LearningRate = 0.5
	ts3, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts3.Seed([]*plan.Plan{changed}, t0); err == nil {
		t.Fatal("a changed plan body under a restored task ID must be rejected")
	}
}

func TestPauseResumeRetire(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "a"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "b"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Pause("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tk, ok := ts.Next()
		if !ok || tk.Plan.ID != "b" {
			t.Fatalf("paused task scheduled: %v %v", tk.Plan, ok)
		}
	}
	if err := ts.Pause("a"); err == nil {
		t.Fatal("pausing a paused task must fail")
	}
	if err := ts.Resume("a"); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		tk, _ := ts.Next()
		seen[tk.Plan.ID] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("resumed task not scheduled: %v", seen)
	}
	if err := ts.Retire("a"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Resume("a"); err == nil {
		t.Fatal("retirement must be terminal")
	}
	for i := 0; i < 6; i++ {
		tk, ok := ts.Next()
		if !ok || tk.Plan.ID != "a" {
			continue
		}
		t.Fatal("retired task scheduled")
	}
	// A retired task's in-flight round outcome is still recorded.
	ts.NoteCommitted("a", 9, 4, time.Unix(9, 0))
	st, _ := ts.StatsFor("a")
	if st.RoundsCommitted != 1 || st.State != Retired {
		t.Fatalf("retired task stats = %+v", st)
	}
}

func TestAutoPauseRecordsReasonUntilResume(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "a"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	const reason = "secure aggregation is unavailable in sharded mode"
	if err := ts.AutoPause("a", reason); err != nil {
		t.Fatal(err)
	}
	st, _ := ts.StatsFor("a")
	if st.State != Paused || st.Note != reason {
		t.Fatalf("auto-paused stats = %+v, want Paused with note", st)
	}
	if _, ok := ts.Next(); ok {
		t.Fatal("auto-paused task must not schedule")
	}
	if err := ts.AutoPause("a", "again"); err == nil {
		t.Fatal("auto-pausing a paused task must fail")
	}
	if err := ts.AutoPause("missing", "x"); err == nil {
		t.Fatal("auto-pausing an unknown task must fail")
	}
	if err := ts.Resume("a"); err != nil {
		t.Fatal(err)
	}
	st, _ = ts.StatsFor("a")
	if st.State != Active || st.Note != "" {
		t.Fatalf("resume must clear the note: %+v", st)
	}
	if _, ok := ts.Next(); !ok {
		t.Fatal("resumed task must schedule again")
	}
}

func TestAutoPauseNoteSurvivesRestart(t *testing.T) {
	store := storage.NewMem()
	ts, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "a"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.AutoPause("a", "why it stopped"); err != nil {
		t.Fatal(err)
	}
	ts2, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := ts2.StatsFor("a")
	if !ok || st.State != Paused || st.Note != "why it stopped" {
		t.Fatalf("restored stats = %+v, want paused with note", st)
	}
}

func TestAllPausedMeansNothingSchedulable(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "a"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Pause("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Next(); ok {
		t.Fatal("nothing should be schedulable")
	}
}

func TestMinDevicesGate(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "big"), Policy{MinDevices: 5000}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "small"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	ts.SetPopulationEstimate(1000)
	for i := 0; i < 6; i++ {
		tk, ok := ts.Next()
		if !ok || tk.Plan.ID != "small" {
			t.Fatalf("gated task scheduled: %+v %v", tk, ok)
		}
	}
	ts.SetPopulationEstimate(10000)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		tk, _ := ts.Next()
		seen[tk.Plan.ID] = true
	}
	if !seen["big"] {
		t.Fatal("task must schedule once the population estimate covers MinDevices")
	}
}

func TestPureEvalSetSchedulesRoundRobin(t *testing.T) {
	// A set with no train task has no cadence clock: eval tasks share
	// rounds by weighted round-robin instead of never running.
	ts := newSet(t)
	if err := ts.Submit(evalPlan(t, "e1"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(evalPlan(t, "e2"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		tk, ok := ts.Next()
		if !ok {
			t.Fatal("nothing schedulable")
		}
		counts[tk.Plan.ID]++
	}
	if counts["e1"] != 4 || counts["e2"] != 4 {
		t.Fatalf("pure-eval round robin = %v", counts)
	}
}

func TestEvalOfMustNameATrainTask(t *testing.T) {
	ts := newSet(t)
	if err := ts.Submit(evalPlan(t, "e1"), Policy{EvalOf: "nope"}, t0); err == nil {
		t.Fatal("unknown EvalOf must be rejected")
	}
	if err := ts.Submit(evalPlan(t, "e1"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(evalPlan(t, "e2"), Policy{EvalOf: "e1"}, t0); err == nil {
		t.Fatal("EvalOf naming an eval task must be rejected")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	store := storage.NewMem()
	ts, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(trainPlan(t, "train"), Policy{Weight: 2}, t0); err != nil {
		t.Fatal(err)
	}
	if err := ts.Submit(evalPlan(t, "eval"), Policy{EvalEvery: 3}, t0); err != nil {
		t.Fatal(err)
	}
	ts.NoteCommitted("train", 7, 12, time.Unix(100, 0))
	if err := ts.Pause("eval"); err != nil {
		t.Fatal(err)
	}

	// A "restarted process": a fresh TaskSet over the same store.
	ts2, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	got := ts2.Stats()
	if len(got) != 2 {
		t.Fatalf("restored %d tasks, want 2", len(got))
	}
	if got[0].ID != "train" || got[0].Policy.Weight != 2 || got[0].RoundsCommitted != 1 ||
		got[0].LastRound != 7 || got[0].Devices != 12 {
		t.Fatalf("restored train stats = %+v", got[0])
	}
	if got[1].ID != "eval" || got[1].State != Paused || got[1].Policy.EvalEvery != 3 ||
		got[1].Policy.EvalOf != "train" {
		t.Fatalf("restored eval stats = %+v", got[1])
	}
	// Seeding the restored set with the same plan must keep the persisted
	// state (no silent resurrection of the paused eval task).
	if err := ts2.Seed([]*plan.Plan{trainPlan(t, "train"), evalPlan(t, "eval")}, t0); err != nil {
		t.Fatal(err)
	}
	if st, _ := ts2.StatsFor("eval"); st.State != Paused {
		t.Fatalf("seed resurrected a paused task: %+v", st)
	}
	// The cadence clock survived: one more train commit makes eval due
	// after resume... (EvalEvery 3, one committed so far).
	if err := ts2.Resume("eval"); err != nil {
		t.Fatal(err)
	}
	tk, ok := ts2.Next()
	if !ok || tk.Plan.ID != "train" {
		t.Fatalf("restored set scheduled %v, want train", tk.Plan)
	}
}

func TestConcurrentUse(t *testing.T) {
	// The registry must be safe under concurrent mutation + scheduling:
	// the server serializes mutations through the Coordinator, but the
	// TaskSet outlives Coordinators and is queried from other goroutines.
	ts := newSet(t)
	if err := ts.Submit(trainPlan(t, "seed"), Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("task-%d", w)
			_ = ts.Submit(trainPlan(t, id), Policy{Weight: w + 1}, t0)
			for i := 0; i < 100; i++ {
				if tk, ok := ts.Next(); ok {
					ts.NoteCommitted(tk.Plan.ID, int64(i), 1, time.Unix(int64(i), 0))
				}
				_ = ts.Stats()
				if i%10 == 0 {
					_ = ts.Pause(id)
					_ = ts.Resume(id)
				}
			}
		}()
	}
	wg.Wait()
	if ts.Len() != 9 {
		t.Fatalf("len = %d, want 9", ts.Len())
	}
}

func TestSeedAcceptsPlansPersistedBeforeServerReportEncoding(t *testing.T) {
	// Plans persisted before ServerPlan.ReportEncoding existed carry 0 in
	// that field; a restarted process re-generating the SAME configuration
	// (which now populates the field) must recognize its own prior state,
	// not refuse to start with "different plan".
	store := storage.NewMem()
	p := trainPlan(t, "upgrade")
	old := *p
	old.Server.ReportEncoding = 0 // pre-upgrade snapshot shape
	ts1, err := New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts1.Submit(&old, Policy{}, t0); err != nil {
		t.Fatal(err)
	}
	ts2, err := New("pop", store) // restores the old-shape snapshot
	if err != nil {
		t.Fatal(err)
	}
	if err := ts2.Seed([]*plan.Plan{p}, t0); err != nil {
		t.Fatalf("restart refused its own pre-upgrade task set: %v", err)
	}
	// A genuinely different encoding is still a different plan.
	changed := *p
	changed.Server.ReportEncoding = checkpoint.EncodingFloat64
	changed.Device.ReportEncoding = checkpoint.EncodingFloat64
	if err := ts2.Seed([]*plan.Plan{&changed}, t0); err == nil {
		t.Fatal("a changed uplink encoding must still read as a different plan")
	}
}

func emptySet() *TaskSet { return &TaskSet{tasks: make(map[string]*record)} }

// filledSet is a registry of two tasks whose every persisted field — every
// Stats, Policy and (through plan.Plan) plan field — holds a distinct
// non-zero value, so a field added to any of them but not to the snapshot
// codec breaks the round trip below.
func filledSet(t testing.TB) (*TaskSet, []byte) {
	ts := emptySet()
	ts.trainCommitted = 7
	for i := 0; i < 2; i++ {
		var v struct {
			Plan   plan.Plan
			Policy Policy
			Stats  Stats
		}
		wiretest.Fill(&v) // one call, so values are distinct across the three
		v.Plan.ID += fmt.Sprint(i)
		r := &record{plan: &v.Plan, policy: v.Policy, stats: v.Stats, state: Paused, evalClock: 5 + i}
		ts.tasks[r.plan.ID] = r
		ts.order = append(ts.order, r.plan.ID)
	}
	b, err := ts.snapshotLocked()
	if err != nil {
		t.Fatal(err)
	}
	return ts, b
}

func TestSnapshotCodecCoversEveryField(t *testing.T) {
	ts, b := filledSet(t)
	got := emptySet()
	if err := got.restore(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.tasks, ts.tasks) || !reflect.DeepEqual(got.order, ts.order) || got.trainCommitted != 7 {
		t.Fatalf("round trip changed the snapshot:\n in  %+v\n out %+v", ts.Stats(), got.Stats())
	}
	for n := 0; n < len(b); n++ {
		if emptySet().restore(b[:n]) == nil {
			t.Fatalf("snapshot truncated to %d/%d bytes decoded cleanly", n, len(b))
		}
	}
	if emptySet().restore(append(b[:len(b):len(b)], 0)) == nil {
		t.Fatal("snapshot with a trailing byte decoded cleanly")
	}
}

// hostileSnapshots: a task count the bytes cannot hold, a first task whose
// plan claims 4 GiB, a task count cut off, and a trainCommitted varint that
// is not canonical — zero in two bytes, eleven bytes, past 64 bits.
var hostileSnapshots = [][]byte{
	{snapshotFormat, 0, 0x80, 0x80, 0x80, 0x80, 0x04},
	{snapshotFormat, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3, 4},
	{snapshotFormat, 0, 0x80},
	{snapshotFormat, 0x80, 0x00, 0},
	{snapshotFormat, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0},
	{snapshotFormat, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0},
}

// savedTask and savedSet are the shapes a gob-era build persisted.
type savedTask struct {
	Plan      *plan.Plan
	Policy    Policy
	State     State
	Stats     Stats
	EvalClock int
}
type savedSet struct {
	Tasks          []savedTask
	TrainCommitted int
}

// TestRestoreRejectsForeignSnapshots: a storage.File directory holding a
// task set written by a gob-era build (gob is the oracle for those bytes), in
// format 1, the fixed-width layout format 2 replaced, or in format 2, whose
// plans are format-3 descriptors, fails New with an error that says so;
// there is no second decoder.
func TestRestoreRejectsForeignSnapshots(t *testing.T) {
	var gobEra bytes.Buffer
	if err := gob.NewEncoder(&gobEra).Encode(&savedSet{Tasks: []savedTask{{Plan: trainPlan(t, "a"), State: Active}}}); err != nil {
		t.Fatal(err)
	}
	foreign := append(hostileSnapshots, gobEra.Bytes(), []byte{snapshotFormat + 1})
	for _, file := range []string{"snapshot_v1.golden", "snapshot_v2.golden"} {
		b, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, b)
	}
	for _, b := range foreign {
		store, err := storage.NewFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.PutTaskSet(b); err != nil {
			t.Fatal(err)
		}
		if _, err := New("pop", store); err == nil {
			t.Fatalf("New restored a foreign snapshot %x", b)
		} else if b[0] != snapshotFormat && !strings.Contains(err.Error(), "incompatible build") {
			t.Fatalf("foreign-format snapshot error does not name the cause: %v", err)
		}
	}
}

// FuzzTaskSetRestore: restore never panics, and a snapshot it accepts
// re-encodes to bytes that are a fixed point of restore→snapshot.
func FuzzTaskSetRestore(f *testing.F) {
	_, filled := filledSet(f)
	f.Add(filled)
	f.Add(filled[:len(filled)/2])
	for _, b := range hostileSnapshots {
		f.Add(b)
	}
	if golden, err := os.ReadFile(goldenSnapshot); err == nil {
		f.Add(golden)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		first := emptySet()
		if first.restore(b) != nil {
			return
		}
		again, err := first.snapshotLocked()
		if err != nil {
			t.Fatal(err)
		}
		second := emptySet()
		if err := second.restore(again); err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		if twice, _ := second.snapshotLocked(); !bytes.Equal(again, twice) {
			t.Fatalf("not a fixed point:\n first  %x\n second %x", again, twice)
		}
	})
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current codec")

const goldenSnapshot = "testdata/snapshot_v3.golden"

// TestWireGolden pins the format-3 snapshot of filledSet to the bytes in
// testdata, and restores them: a change to any field's width, order or
// encoding fails it. Such a change bumps snapshotFormat and regenerates the
// file with -update.
func TestWireGolden(t *testing.T) {
	ts, got := filledSet(t)
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenSnapshot), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the snapshot's bytes moved:\n got  %x\n want %x", got, want)
	}
	back := emptySet()
	if err := back.restore(want); err != nil || !reflect.DeepEqual(back.tasks, ts.tasks) {
		t.Errorf("the golden snapshot restores to %+v, %v", back.Stats(), err)
	}
}
