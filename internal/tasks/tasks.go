// Package tasks makes FL tasks the first-class unit the model engineer
// operates on (Sec. 7): a TaskSet is a concurrent, storage-backed registry
// of the FL tasks deployed to one population. Tasks are submitted, paused,
// resumed, and retired on a *live* population; each carries a scheduling
// policy (weight for weighted round-robin, eval cadence against committed
// train rounds, deployment gates) and cumulative per-task stats. The
// Coordinator asks the TaskSet for its next task every scheduling tick
// instead of walking a frozen plan slice.
//
// Concurrency: the TaskSet is safe for concurrent use, but in the server
// all *mutations* arrive serialized through the Coordinator's mailbox, so
// a task can never change state in the middle of a scheduling decision.
// The registry itself must still outlive any one Coordinator: it is owned
// by the Server/Fleet entry and survives Coordinator crash/respawn.
//
// Persistence: every mutation (and every round outcome) snapshots the
// registry to the population's storage.Store, so a restarted process
// resumes the same task set — states, policies, and stats included.
// Config.Plans remains sugar that seeds a TaskSet with default-policy
// tasks.
package tasks

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/wire"
)

// State is a task's lifecycle state.
type State uint8

// Task lifecycle states. Active tasks are scheduled; Paused tasks keep
// their stats and policy but are skipped until resumed; Retired is
// terminal — a retired task's in-flight round is allowed to complete, but
// the task is never scheduled again.
const (
	Active State = iota + 1
	Paused
	Retired
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Paused:
		return "paused"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Policy is a task's scheduling policy — the knobs of the paper's Sec. 7
// task configuration that govern *when* the task runs, as opposed to the
// plan, which governs *what* it runs.
type Policy struct {
	// Weight is the task's share in the weighted round-robin over active
	// train tasks (default 1). A weight-3 task is scheduled three times as
	// often as a weight-1 task.
	Weight int
	// EvalEvery is the eval cadence: run this evaluation task after every N
	// committed train rounds of the population (default 1 for eval tasks;
	// ignored for train tasks). Eval traffic paces against training
	// progress, not wall clock, so a stalled population stops paying for
	// eval rounds.
	EvalEvery int
	// EvalOf names the task whose latest committed checkpoint this eval
	// task evaluates (default: the population's first train task). Eval
	// rounds serve that checkpoint read-only — they never advance it.
	EvalOf string
	// MinDevices gates scheduling on the population estimate: while the
	// estimated population is below this, the task is skipped (0 = no gate).
	MinDevices int
	// MinRuntimeVersion forbids serving this task to device runtimes older
	// than this version, even when plan versioning could lower the plan for
	// them (0 = lower whenever possible).
	MinRuntimeVersion int
}

// withDefaults fills the policy's zero values for a plan of type t.
func (p Policy) withDefaults(t plan.TaskType) Policy {
	if p.Weight <= 0 {
		p.Weight = 1
	}
	if t == plan.TaskEval && p.EvalEvery <= 0 {
		p.EvalEvery = 1
	}
	return p
}

// Stats is one task's cumulative lifecycle record.
type Stats struct {
	ID     string
	Type   plan.TaskType
	State  State
	Policy Policy
	// RoundsCommitted / RoundsFailed count this task's round outcomes.
	RoundsCommitted int
	RoundsFailed    int
	// Devices is the cumulative number of device reports across the task's
	// committed rounds.
	Devices int
	// LastRound is the global-model round number of the task's most recent
	// committed round (for eval tasks: the round of the checkpoint served).
	LastRound int64
	// LastRoundAt is when that round committed.
	LastRoundAt time.Time
	SubmittedAt time.Time
	// Note is the operator-visible reason for the task's current state —
	// set when the system pauses a task on its own initiative (AutoPause),
	// cleared when the task is resumed. Empty for operator-driven states.
	Note string
}

// Task is an immutable scheduling snapshot: the plan to run and the policy
// it runs under.
type Task struct {
	Plan   *plan.Plan
	Policy Policy
}

// record is the registry's mutable per-task state.
type record struct {
	plan   *plan.Plan
	policy Policy
	state  State
	stats  Stats
	// evalClock is the value of trainCommitted when the eval task last ran
	// (or was submitted); the task is due again once trainCommitted has
	// advanced by EvalEvery.
	evalClock int
	// wrr is the smooth weighted-round-robin current weight.
	wrr int
}

// TaskSet is the concurrent registry of one population's FL tasks.
type TaskSet struct {
	population string

	mu    sync.Mutex
	store storage.Store // nil = not persisted
	order []string
	tasks map[string]*record
	// trainCommitted counts committed train rounds across all tasks — the
	// clock eval cadences run against.
	trainCommitted int
	// estimate is the population-size estimate MinDevices gates check.
	estimate int
}

// New builds the task registry for a population, restoring any snapshot
// previously persisted to store (store may be nil for an unpersisted set).
func New(population string, store storage.Store) (*TaskSet, error) {
	ts := &TaskSet{
		population: population,
		store:      store,
		tasks:      make(map[string]*record),
	}
	if store != nil {
		b, err := store.TaskSet()
		if err != nil {
			return nil, fmt.Errorf("tasks: load persisted set: %w", err)
		}
		if len(b) > 0 {
			if err := ts.restore(b); err != nil {
				return nil, err
			}
		}
	}
	return ts, nil
}

// Seed submits each plan as an Active default-policy task — the
// Config.Plans sugar. A plan whose ID was already restored from storage
// with the SAME plan body is skipped (a restarted process keeps the
// persisted state, including a pause or retirement, rather than silently
// resurrecting the task); a *different* plan body under a restored ID is
// an error — dropping it silently would leave the operator believing the
// new plan deployed. Duplicate IDs within plans are an error. at is the
// submission time of the tasks it adds.
func (ts *TaskSet) Seed(plans []*plan.Plan, at time.Time) error {
	seen := make(map[string]bool, len(plans))
	for _, p := range plans {
		if seen[p.ID] {
			return fmt.Errorf("tasks: duplicate task ID %q in Plans — task IDs name per-task checkpoint lineages and must be unique", p.ID)
		}
		seen[p.ID] = true
	}
	for _, p := range plans {
		ts.mu.Lock()
		existing, exists := ts.tasks[p.ID]
		ts.mu.Unlock()
		if exists {
			same, err := samePlan(existing.plan, p)
			if err != nil {
				return err
			}
			if !same {
				return fmt.Errorf("tasks: task %q already exists (restored from storage) with a different plan; retire it or submit the new plan under a new ID", p.ID)
			}
			continue
		}
		if err := ts.Submit(p, Policy{}, at); err != nil {
			return err
		}
	}
	return nil
}

// samePlan reports whether two plans have identical bodies (via their
// canonical wire encoding). The uplink report encoding is compared in its
// RESOLVED form (Plan.UplinkEncoding): plans persisted before
// ServerPlan.ReportEncoding existed carry 0 there, and a restart must not
// refuse its own prior state just because the same configuration now
// populates the new field.
func samePlan(a, b *plan.Plan) (bool, error) {
	normalize := func(p *plan.Plan) *plan.Plan {
		n := *p
		n.Server.ReportEncoding = p.UplinkEncoding()
		return &n
	}
	ab, err := normalize(a).Marshal()
	if err != nil {
		return false, fmt.Errorf("tasks: compare plans: %w", err)
	}
	bb, err := normalize(b).Marshal()
	if err != nil {
		return false, fmt.Errorf("tasks: compare plans: %w", err)
	}
	return bytes.Equal(ab, bb), nil
}

// Submit adds a new Active task. The plan must validate, belong to this
// population, and carry an ID no live or retired task has used: task IDs
// name per-task checkpoint lineages in storage, so a colliding resubmit
// would silently graft onto the old task's model state. at is the
// submission time its stats record.
func (ts *TaskSet) Submit(p *plan.Plan, pol Policy, at time.Time) error {
	if p == nil {
		return fmt.Errorf("tasks: nil plan")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if ts.population != "" && p.Population != ts.population {
		return fmt.Errorf("tasks: plan %q is for population %q, task set is %q", p.ID, p.Population, ts.population)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, dup := ts.tasks[p.ID]; dup {
		return fmt.Errorf("tasks: task %q already exists in population %q", p.ID, ts.population)
	}
	pol = pol.withDefaults(p.Type)
	if p.Type == plan.TaskEval && pol.EvalOf == "" {
		pol.EvalOf = ts.firstTrainIDLocked()
	}
	if pol.EvalOf != "" {
		base, ok := ts.tasks[pol.EvalOf]
		if !ok {
			return fmt.Errorf("tasks: eval task %q evaluates unknown task %q", p.ID, pol.EvalOf)
		}
		if base.plan.Type != plan.TaskTrain {
			return fmt.Errorf("tasks: eval task %q must evaluate a train task, %q is %s", p.ID, pol.EvalOf, base.plan.Type)
		}
	}
	ts.tasks[p.ID] = &record{
		plan:   p,
		policy: pol,
		state:  Active,
		stats: Stats{
			ID: p.ID, Type: p.Type, State: Active, Policy: pol,
			SubmittedAt: at,
		},
		evalClock: ts.trainCommitted,
	}
	ts.order = append(ts.order, p.ID)
	if err := ts.persistLocked(); err != nil {
		// The mutation must not outlive a failed persist: the caller reads
		// the error as "not submitted", so an unpersisted task must not
		// start scheduling rounds behind their back.
		delete(ts.tasks, p.ID)
		ts.order = ts.order[:len(ts.order)-1]
		return err
	}
	ts.gaugeStatesLocked()
	return nil
}

// Pause stops scheduling the task; an in-flight round completes normally.
func (ts *TaskSet) Pause(id string) error {
	return ts.setState(id, Paused, "pause", Active)
}

// AutoPause pauses the task on the system's own initiative and records the
// reason in Stats.Note, so operators see WHY the scheduler stopped running
// it instead of a silent failure loop. Resume clears the note. Pausing a
// task that is already paused or retired is an error, same as Pause.
func (ts *TaskSet) AutoPause(id, reason string) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.tasks[id]
	if !ok {
		return fmt.Errorf("tasks: no task %q in population %q", id, ts.population)
	}
	if r.state != Active {
		return fmt.Errorf("tasks: cannot auto-pause task %q: it is %s", id, r.state)
	}
	prevNote := r.stats.Note
	r.state = Paused
	r.stats.State = Paused
	r.stats.Note = reason
	if err := ts.persistLocked(); err != nil {
		r.state = Active
		r.stats.State = Active
		r.stats.Note = prevNote
		return err
	}
	ts.gaugeStatesLocked()
	return nil
}

// Resume reactivates a paused task and clears any auto-pause note.
func (ts *TaskSet) Resume(id string) error {
	return ts.setState(id, Active, "resume", Paused)
}

// Retire permanently stops scheduling the task. The in-flight round, if
// any, completes and its outcome is still recorded; the task never
// reschedules and cannot be resumed.
func (ts *TaskSet) Retire(id string) error {
	return ts.setState(id, Retired, "retire", Active, Paused)
}

// setState transitions id to next if its current state is in from.
func (ts *TaskSet) setState(id string, next State, verb string, from ...State) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.tasks[id]
	if !ok {
		return fmt.Errorf("tasks: no task %q in population %q", id, ts.population)
	}
	allowed := false
	for _, s := range from {
		if r.state == s {
			allowed = true
			break
		}
	}
	if !allowed {
		return fmt.Errorf("tasks: cannot %s task %q: it is %s", verb, id, r.state)
	}
	prev := r.state
	prevNote := r.stats.Note
	r.state = next
	r.stats.State = next
	if next == Active {
		r.stats.Note = ""
	}
	if err := ts.persistLocked(); err != nil {
		// An errored transition must not silently take effect.
		r.state = prev
		r.stats.State = prev
		r.stats.Note = prevNote
		return err
	}
	ts.gaugeStatesLocked()
	return nil
}

// gaugeStatesLocked refreshes the fl_tasks{state=...} gauges from the
// registry. Called (with ts.mu held) on every mutation that can change a
// task's lifecycle state, so the gauges are event-driven rather than
// polled and never lag a transition.
func (ts *TaskSet) gaugeStatesLocked() {
	var active, paused, retired int
	for _, r := range ts.tasks {
		switch r.state {
		case Active:
			active++
		case Paused:
			paused++
		case Retired:
			retired++
		}
	}
	// Labeled by population: a fleet gateway runs one TaskSet per
	// population in the same process, and unlabeled gauges would have
	// each set overwrite the others' counts.
	metrics.Default.Gauge(metrics.Label("fl_tasks", "population", ts.population, "state", "active")).Set(float64(active))
	metrics.Default.Gauge(metrics.Label("fl_tasks", "population", ts.population, "state", "paused")).Set(float64(paused))
	metrics.Default.Gauge(metrics.Label("fl_tasks", "population", ts.population, "state", "retired")).Set(float64(retired))
}

// SetPopulationEstimate updates the estimate the MinDevices gates check.
// The Coordinator feeds it live from the Selector layer's observed
// check-in rates, so gates track the population actually reachable rather
// than the static configuration value.
func (ts *TaskSet) SetPopulationEstimate(n int) {
	ts.mu.Lock()
	ts.estimate = n
	ts.mu.Unlock()
}

// PopulationEstimate returns the current estimate.
func (ts *TaskSet) PopulationEstimate() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.estimate
}

// GatedByEstimate reports whether any Active task is currently held back
// solely by its MinDevices population gate — the signal the Coordinator
// uses to keep re-checking an otherwise idle population as fresh estimate
// samples arrive.
func (ts *TaskSet) GatedByEstimate() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, id := range ts.order {
		r := ts.tasks[id]
		if r.state == Active && r.policy.MinDevices > 0 && ts.estimate > 0 && ts.estimate < r.policy.MinDevices {
			return true
		}
	}
	return false
}

// schedulable reports whether r passes its policy's deployment gates.
func (ts *TaskSet) schedulable(r *record) bool {
	if r.state != Active {
		return false
	}
	if r.policy.MinDevices > 0 && ts.estimate > 0 && ts.estimate < r.policy.MinDevices {
		return false
	}
	return true
}

// hasTrainTask reports whether any train-type task exists in the set (any
// state): eval cadences are pegged to training progress whenever the set
// has training at all, and only a pure-eval deployment falls back to
// scheduling eval tasks round-robin.
func (ts *TaskSet) hasTrainTaskLocked() bool {
	for _, id := range ts.order {
		if ts.tasks[id].plan.Type == plan.TaskTrain {
			return true
		}
	}
	return false
}

// firstTrainIDLocked returns the first-submitted train task's ID, or "".
func (ts *TaskSet) firstTrainIDLocked() string {
	for _, id := range ts.order {
		if ts.tasks[id].plan.Type == plan.TaskTrain {
			return id
		}
	}
	return ""
}

// PrimaryID returns the population's first-submitted train task (falling
// back to the first task of any type), the task whose round number stands
// in for "the population's current round" in coarse progress reports.
func (ts *TaskSet) PrimaryID() (string, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if id := ts.firstTrainIDLocked(); id != "" {
		return id, true
	}
	if len(ts.order) > 0 {
		return ts.order[0], true
	}
	return "", false
}

// Next returns the task the population should run its next round for, or
// ok=false when nothing is schedulable. Due evaluation tasks take priority
// (their cadence owes rounds to already-committed training progress);
// otherwise active train tasks share rounds by smooth weighted
// round-robin. Picking a due eval task consumes its due-ness; NoteFailed
// re-arms it so a failed eval round retries instead of waiting out another
// full cadence.
func (ts *TaskSet) Next() (Task, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	hasTrain := ts.hasTrainTaskLocked()

	// 1. Due eval tasks, in submission order.
	if hasTrain {
		for _, id := range ts.order {
			r := ts.tasks[id]
			if r.plan.Type != plan.TaskEval || !ts.schedulable(r) {
				continue
			}
			if ts.trainCommitted-r.evalClock >= r.policy.EvalEvery {
				r.evalClock = ts.trainCommitted
				return Task{Plan: r.plan, Policy: r.policy}, true
			}
		}
	}

	// 2. Smooth weighted round-robin over schedulable train tasks — or over
	// every schedulable task when the set has no training at all (a
	// pure-eval deployment has no train-round clock to pace against).
	var eligible []*record
	total := 0
	for _, id := range ts.order {
		r := ts.tasks[id]
		if !ts.schedulable(r) {
			continue
		}
		if hasTrain && r.plan.Type != plan.TaskTrain {
			continue
		}
		eligible = append(eligible, r)
		total += r.policy.Weight
	}
	if len(eligible) == 0 {
		return Task{}, false
	}
	var pick *record
	for _, r := range eligible {
		r.wrr += r.policy.Weight
		if pick == nil || r.wrr > pick.wrr {
			pick = r
		}
	}
	pick.wrr -= total
	return Task{Plan: pick.plan, Policy: pick.policy}, true
}

// Get returns the task's scheduling snapshot.
func (ts *TaskSet) Get(id string) (Task, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.tasks[id]
	if !ok {
		return Task{}, false
	}
	return Task{Plan: r.plan, Policy: r.policy}, true
}

// NoteCommitted records a committed round for the task: round is the
// global-model round number, devices the reports that survived
// aggregation. Committed *train* rounds advance the cadence clock eval
// tasks pace against.
func (ts *TaskSet) NoteCommitted(id string, round int64, devices int, at time.Time) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.tasks[id]
	if !ok {
		return
	}
	r.stats.RoundsCommitted++
	r.stats.Devices += devices
	r.stats.LastRound = round
	r.stats.LastRoundAt = at
	if r.plan.Type == plan.TaskTrain {
		ts.trainCommitted++
	}
	_ = ts.persistLocked()
}

// NoteFailed records an abandoned round for the task. A failed eval round
// re-arms the task's cadence one train commit out — it retries without
// waiting out another full EvalEvery, but because due eval tasks preempt
// train rounds, re-arming to *immediately due* would let a persistently
// failing eval task hot-loop and starve training forever; requiring one
// fresh train commit between attempts keeps the population progressing.
func (ts *TaskSet) NoteFailed(id string) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.tasks[id]
	if !ok {
		return
	}
	r.stats.RoundsFailed++
	if r.plan.Type == plan.TaskEval && r.policy.EvalEvery > 0 {
		r.evalClock = ts.trainCommitted - r.policy.EvalEvery + 1
	}
	_ = ts.persistLocked()
}

// Stats returns every task's cumulative record, in submission order.
func (ts *TaskSet) Stats() []Stats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Stats, 0, len(ts.order))
	for _, id := range ts.order {
		out = append(out, ts.tasks[id].stats)
	}
	return out
}

// StatsFor returns one task's cumulative record.
func (ts *TaskSet) StatsFor(id string) (Stats, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.tasks[id]
	if !ok {
		return Stats{}, false
	}
	return r.stats, true
}

// Len returns the number of tasks in the registry (any state).
func (ts *TaskSet) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.order)
}

// --- persistence ---

// snapshotFormat is the first byte of a persisted snapshot; it moves
// whenever the field list below does. DESIGN.md tabulates the layout.
const snapshotFormat = 1

func appendPolicy(b []byte, p Policy) []byte {
	b = wire.AppendI64(b, int64(p.Weight))
	b = wire.AppendI64(b, int64(p.EvalEvery))
	b = wire.AppendStr(b, p.EvalOf)
	b = wire.AppendI64(b, int64(p.MinDevices))
	return wire.AppendI64(b, int64(p.MinRuntimeVersion))
}

func readPolicy(rd *wire.Reader) Policy {
	return Policy{
		Weight: int(rd.I64()), EvalEvery: int(rd.I64()), EvalOf: rd.Str(),
		MinDevices: int(rd.I64()), MinRuntimeVersion: int(rd.I64()),
	}
}

// Times ride as time.Time's own binary form, which keeps the zero time and
// the zone offset.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	tb, err := t.MarshalBinary()
	return wire.AppendBytes(b, tb), err
}

func readTime(rd *wire.Reader) (t time.Time) {
	if t.UnmarshalBinary(rd.Bytes()) != nil {
		rd.Fail("time")
	}
	return t
}

// snapshotLocked encodes the registry: the format byte, trainCommitted, the
// task count, then per task in submission order the plan (its own
// plan.Marshal bytes), policy, state, every field of Stats in declaration
// order, and the eval clock, under internal/wire's conventions. Callers
// hold ts.mu.
func (ts *TaskSet) snapshotLocked() ([]byte, error) {
	b := append(make([]byte, 0, 1024), snapshotFormat)
	b = wire.AppendI64(b, int64(ts.trainCommitted))
	b = wire.AppendU32(b, uint32(len(ts.order)))
	for _, id := range ts.order {
		r := ts.tasks[id]
		st := &r.stats
		pb, err := r.plan.Marshal()
		if err != nil {
			return nil, err
		}
		b = wire.AppendBytes(b, pb)
		b = appendPolicy(b, r.policy)
		b = append(b, byte(r.state))
		b = wire.AppendStr(b, st.ID)
		b = append(b, byte(st.Type), byte(st.State))
		b = appendPolicy(b, st.Policy)
		b = wire.AppendI64(b, int64(st.RoundsCommitted))
		b = wire.AppendI64(b, int64(st.RoundsFailed))
		b = wire.AppendI64(b, int64(st.Devices))
		b = wire.AppendI64(b, st.LastRound)
		if b, err = appendTime(b, st.LastRoundAt); err != nil {
			return nil, err
		}
		if b, err = appendTime(b, st.SubmittedAt); err != nil {
			return nil, err
		}
		b = wire.AppendStr(b, st.Note)
		b = wire.AppendI64(b, int64(r.evalClock))
	}
	return b, nil
}

// persistLocked snapshots the registry to storage. Callers hold ts.mu.
func (ts *TaskSet) persistLocked() error {
	if ts.store == nil {
		return nil
	}
	b, err := ts.snapshotLocked()
	if err == nil {
		err = ts.store.PutTaskSet(b)
	}
	if err != nil {
		return fmt.Errorf("tasks: persist: %w", err)
	}
	return nil
}

// restore loads a snapshot produced by snapshotLocked into an empty
// registry. It rejects an unknown format byte, truncation and trailing
// bytes; it never panics, and every record it allocates was paid for with a
// whole plan descriptor.
func (ts *TaskSet) restore(b []byte) error {
	if len(b) == 0 || b[0] != snapshotFormat {
		return fmt.Errorf("tasks: the persisted task set was written by an incompatible build (not a format-%d snapshot) and there is no migration: restore it with the build that wrote it, or remove it to start an empty set", snapshotFormat)
	}
	rd := wire.NewReader(b[1:])
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.trainCommitted = int(rd.I64())
	for i, n := 0, rd.Count("task", 4); i < n; i++ {
		p, err := plan.Unmarshal(rd.Bytes())
		if err != nil {
			return fmt.Errorf("tasks: restore task %d: %w", i, err)
		}
		if p.ID == "" {
			return fmt.Errorf("tasks: restore task %d: plan without ID", i)
		}
		r := &record{plan: p, policy: readPolicy(rd), state: State(rd.U8("task state"))}
		r.stats = Stats{
			ID: rd.Str(), Type: plan.TaskType(rd.U8("stats type")), State: State(rd.U8("stats state")),
			Policy: readPolicy(rd), RoundsCommitted: int(rd.I64()), RoundsFailed: int(rd.I64()),
			Devices: int(rd.I64()), LastRound: rd.I64(),
			LastRoundAt: readTime(rd), SubmittedAt: readTime(rd), Note: rd.Str(),
		}
		r.evalClock = int(rd.I64())
		ts.tasks[p.ID] = r
		ts.order = append(ts.order, p.ID)
	}
	if err := rd.Finish(); err != nil {
		return fmt.Errorf("tasks: restore persisted set: %w", err)
	}
	ts.gaugeStatesLocked()
	return nil
}
