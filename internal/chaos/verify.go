package chaos

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// Probe is one post-scenario invariant check: Check returns nil when the
// invariant held.
type Probe struct {
	Name  string
	Check func() error
}

// Report is the outcome of one Verify run.
type Report struct {
	Passed   []string
	Failures []error
}

// OK reports whether every probe held.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// String renders the report, one probe per line.
func (r Report) String() string {
	var b strings.Builder
	for _, p := range r.Passed {
		fmt.Fprintf(&b, "ok   %s\n", p)
	}
	for _, err := range r.Failures {
		fmt.Fprintf(&b, "FAIL %v\n", err)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Err returns nil when the report is green, else one error joining every
// failure.
func (r Report) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Failures))
	for i, err := range r.Failures {
		msgs[i] = err.Error()
	}
	return fmt.Errorf("chaos: %d invariant(s) violated: %s", len(r.Failures), strings.Join(msgs, "; "))
}

// Verify runs every probe and collects the report — the invariant checker
// every chaos scenario ends with. Probes must run after teardown (rounds
// stopped, connections closed) so accounting checks see the quiescent state.
func Verify(probes ...Probe) Report {
	var r Report
	for _, p := range probes {
		if err := p.Check(); err != nil {
			r.Failures = append(r.Failures, fmt.Errorf("%s: %w", p.Name, err))
		} else {
			r.Passed = append(r.Passed, p.Name)
		}
	}
	return r
}

// --- checkpoint lineage ---

// WatchStore wraps a storage.Store and records every committed checkpoint,
// so lineage invariants — strictly advancing rounds, a single head, no
// double-commit, no committed checkpoint changed after its commit — can be
// checked after a scenario. It is the store handed to the coordinator under
// test.
type WatchStore struct {
	storage.Store

	mu      sync.Mutex
	commits map[string][]*checkpoint.Checkpoint // task -> commit order, cloned
	heads   map[string]*checkpoint.Checkpoint   // task -> the last commit, live
	traces  []metrics.RoundTrace
	errs    []error
	// onCommit, when set, sees every commit before the store does.
	onCommit func(*checkpoint.Checkpoint)
}

// NewWatchStore wraps inner.
func NewWatchStore(inner storage.Store) *WatchStore {
	return &WatchStore{Store: inner, commits: map[string][]*checkpoint.Checkpoint{}, heads: map[string]*checkpoint.Checkpoint{}}
}

// PutCheckpoint implements storage.Store, recording the commit and checking
// lineage monotonicity, and that the task's previous commit still holds what
// it did when committed, at commit time (a violation is latched, not raced).
func (w *WatchStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	w.mu.Lock()
	prev := w.commits[c.TaskName]
	if len(prev) > 0 {
		head := prev[len(prev)-1]
		if err := w.changed(head); err != nil {
			w.errs = append(w.errs, err)
		}
		if c.Round == head.Round {
			w.errs = append(w.errs, fmt.Errorf("task %q: double commit of round %d", c.TaskName, c.Round))
		} else if c.Round < head.Round {
			w.errs = append(w.errs, fmt.Errorf("task %q: lineage fork — committed round %d after head %d", c.TaskName, c.Round, head.Round))
		}
	}
	w.commits[c.TaskName] = append(prev, c.Clone())
	w.heads[c.TaskName] = c
	w.mu.Unlock()
	if w.onCommit != nil {
		w.onCommit(c)
	}
	return w.Store.PutCheckpoint(c)
}

// changed reports a task's last committed checkpoint that no longer matches,
// bit for bit, the clone recorded at its commit. w.mu is held.
func (w *WatchStore) changed(rec *checkpoint.Checkpoint) error {
	live := w.heads[rec.TaskName]
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if live.Round != rec.Round || !sameBits(live.Weight, rec.Weight) || !slices.EqualFunc(live.Params, rec.Params, sameBits) {
		return fmt.Errorf("task %q: committed round %d changed after its commit", rec.TaskName, rec.Round)
	}
	return nil
}

// Commits returns the commit-ordered lineage recorded for a task.
func (w *WatchStore) Commits(task string) []*checkpoint.Checkpoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*checkpoint.Checkpoint, len(w.commits[task]))
	copy(out, w.commits[task])
	return out
}

// PutRoundTrace implements metrics.TraceStore, keeping every round trace.
func (w *WatchStore) PutRoundTrace(t metrics.RoundTrace) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.traces = append(w.traces, t)
	return nil
}

// Traces returns the round traces in the order the rounds settled.
func (w *WatchStore) Traces() []metrics.RoundTrace {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.traces)
}

// LineageProbe is the Probe over the recorded lineage.
func (w *WatchStore) LineageProbe() Probe {
	return Probe{"checkpoint-lineage", func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		if len(w.errs) > 0 {
			return w.errs[0]
		}
		for task, cs := range w.commits {
			if err := w.changed(cs[len(cs)-1]); err != nil {
				return err
			}
			for i := 1; i < len(cs); i++ {
				if cs[i].Round <= cs[i-1].Round {
					return fmt.Errorf("task %q: round %d committed after %d", task, cs[i].Round, cs[i-1].Round)
				}
			}
		}
		return nil
	}}
}

// --- connection / goroutine accounting ---

// TeardownProbe asserts that nothing of a torn-down rig outlived it: by the
// rig's own census no goroutine — device loop, actor, redial loop,
// delayed-delivery sender — and no loan lent on its clock, and no connection
// the injector wrapped. Armed timers are not counted: those of stopped
// actors fire as no-ops. Run it once the rig is idle.
func TeardownProbe(rig *simclock.Virtual, in *Injector) Probe {
	return Probe{"teardown", func() error {
		if n := rig.Goroutines(); n != 0 {
			return fmt.Errorf("%d goroutine(s) outlived the teardown", n)
		}
		if n := rig.Loans(); n != 0 {
			return fmt.Errorf("%d loan(s) still out", n)
		}
		if n := in.OpenConns(); n != 0 {
			return fmt.Errorf("%d wrapped connection(s) still open", n)
		}
		return nil
	}}
}

// --- /metrics counter monotonicity ---

// CounterWatch samples a metrics registry's counters and asserts none ever
// decreases — reconnects and re-registrations must not reset exported
// counters. Call Sample during the scenario (each round is a natural point);
// Probe checks the recorded sequence.
type CounterWatch struct {
	reg *metrics.Registry

	mu   sync.Mutex
	last map[string]int64
	errs []error
}

// NewCounterWatch watches reg (metrics.Default for the in-process registry).
func NewCounterWatch(reg *metrics.Registry) *CounterWatch {
	return &CounterWatch{reg: reg, last: make(map[string]int64)}
}

// Sample snapshots the registry and checks against the previous sample.
func (c *CounterWatch) Sample() {
	exp := c.reg.Export()
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, v := range exp.Counters {
		if prev, ok := c.last[name]; ok && v < prev {
			c.errs = append(c.errs, fmt.Errorf("counter %q went backward: %d -> %d", name, prev, v))
		}
		c.last[name] = v
	}
}

// Probe returns the monotonicity probe (takes one final sample first).
func (c *CounterWatch) Probe() Probe {
	return Probe{"counters-monotonic", func() error {
		c.Sample()
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.errs) > 0 {
			return c.errs[0]
		}
		return nil
	}}
}

// --- aggregate-sum correctness ---

// SumProbe asserts a committed lineage equals a fault-free reference
// lineage within tol — the "never commit an incorrect survivor sum" check.
// Scenario drivers arrange for it to be decidable by giving every device
// identical data and runtime seed: the weighted average of identical update
// vectors is that vector regardless of which subset survives the faults, so
// any divergence means a corrupt or double-counted contribution reached a
// commit.
func SumProbe(got, want []*checkpoint.Checkpoint, tol float64) Probe {
	return Probe{"aggregate-sum", func() error {
		wantByRound := make(map[int64]*checkpoint.Checkpoint, len(want))
		for _, c := range want {
			wantByRound[c.Round] = c
		}
		if len(got) == 0 {
			return fmt.Errorf("no committed rounds to check")
		}
		for _, g := range got {
			w, ok := wantByRound[g.Round]
			if !ok {
				return fmt.Errorf("round %d committed but absent from the reference lineage", g.Round)
			}
			if len(g.Params) != len(w.Params) {
				return fmt.Errorf("round %d: dim %d vs reference %d", g.Round, len(g.Params), len(w.Params))
			}
			for i := range g.Params {
				if d := math.Abs(g.Params[i] - w.Params[i]); d > tol || math.IsNaN(g.Params[i]) {
					return fmt.Errorf("round %d param %d: got %g want %g (|Δ|=%g > tol %g)", g.Round, i, g.Params[i], w.Params[i], d, tol)
				}
			}
		}
		return nil
	}}
}

// QuotaLedger is the selector layer's quota ledger.
type QuotaLedger struct {
	Granted, Consumed, Revoked, Outstanding int64
}

// QuotaProbe asserts the ledger is conserved — granted == consumed + revoked
// + outstanding — and, when it was read once every round had settled,
// drained: nothing outstanding.
func QuotaProbe(l QuotaLedger, settled bool) Probe {
	return Probe{"quota-conservation", func() error {
		if l.Granted != l.Consumed+l.Revoked+l.Outstanding {
			return fmt.Errorf("ledger leak: granted %d != consumed %d + revoked %d + outstanding %d",
				l.Granted, l.Consumed, l.Revoked, l.Outstanding)
		}
		if settled && l.Outstanding != 0 {
			return fmt.Errorf("%d quota slot(s) still outstanding once the rounds were done", l.Outstanding)
		}
		return nil
	}}
}
