package chaos

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Probe is one post-scenario invariant check.
type Probe interface {
	Name() string
	// Check returns nil when the invariant held.
	Check() error
}

// CheckFunc adapts a closure into a Probe.
type CheckFunc struct {
	Probe string
	Fn    func() error
}

// Name implements Probe.
func (c CheckFunc) Name() string { return c.Probe }

// Check implements Probe.
func (c CheckFunc) Check() error { return c.Fn() }

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
			r.Failures = append(r.Failures, fmt.Errorf("%s: %w", p.Name(), err))
		} else {
			r.Passed = append(r.Passed, p.Name())
		}
	}
	return r
}

// --- checkpoint lineage ---

// WatchStore wraps a storage.Store and records every committed checkpoint,
// so lineage invariants — strictly advancing rounds, a single head, no
// double-commit — can be checked after a scenario. It is the store handed to
// the coordinator under test.
type WatchStore struct {
	storage.Store

	mu      sync.Mutex
	commits map[string][]*checkpoint.Checkpoint // task -> commit order
	errs    []error
}

// NewWatchStore wraps inner.
func NewWatchStore(inner storage.Store) *WatchStore {
	return &WatchStore{Store: inner, commits: make(map[string][]*checkpoint.Checkpoint)}
}

// PutCheckpoint implements storage.Store, recording the commit and checking
// lineage monotonicity at commit time (a violation is latched, not raced).
func (w *WatchStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	w.mu.Lock()
	prev := w.commits[c.TaskName]
	if len(prev) > 0 {
		head := prev[len(prev)-1]
		if c.Round == head.Round {
			w.errs = append(w.errs, fmt.Errorf("task %q: double commit of round %d", c.TaskName, c.Round))
		} else if c.Round < head.Round {
			w.errs = append(w.errs, fmt.Errorf("task %q: lineage fork — committed round %d after head %d", c.TaskName, c.Round, head.Round))
		}
	}
	w.commits[c.TaskName] = append(prev, c.Clone())
	w.mu.Unlock()
	return w.Store.PutCheckpoint(c)
}

// Commits returns the commit-ordered lineage recorded for a task.
func (w *WatchStore) Commits(task string) []*checkpoint.Checkpoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*checkpoint.Checkpoint, len(w.commits[task]))
	copy(out, w.commits[task])
	return out
}

// LineageProbe is the Probe over the recorded lineage.
func (w *WatchStore) LineageProbe() Probe {
	return CheckFunc{Probe: "checkpoint-lineage", Fn: func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		if len(w.errs) > 0 {
			return w.errs[0]
		}
		for task, cs := range w.commits {
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

// settle polls cond until it returns nil or the deadline passes, returning
// cond's last error. Teardown is asynchronous (conn close fan-out, actor
// stops), so accounting probes give the system a moment to quiesce.
func settle(d time.Duration, cond func() error) error {
	deadline := time.Now().Add(d)
	for {
		err := cond()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ConnProbe asserts the injector's conn accounting drained: every wrapped
// connection was closed and every deferred-delivery sender goroutine exited.
func ConnProbe(in *Injector) Probe {
	return CheckFunc{Probe: "conn-accounting", Fn: func() error {
		return settle(5*time.Second, func() error {
			if n := in.OpenConns(); n != 0 {
				return fmt.Errorf("%d wrapped connection(s) still open", n)
			}
			if n := in.SenderGoroutines(); n != 0 {
				return fmt.Errorf("%d sender goroutine(s) still live", n)
			}
			return nil
		})
	}}
}

// GoroutineProbe captures the current goroutine count and asserts the count
// returns near it (within slack) after the scenario — the leak check for
// device pumps, actor loops, and redial loops.
func GoroutineProbe(slack int) Probe {
	before := runtime.NumGoroutine()
	return CheckFunc{Probe: "goroutine-accounting", Fn: func() error {
		return settle(5*time.Second, func() error {
			if now := runtime.NumGoroutine(); now > before+slack {
				return fmt.Errorf("goroutines grew %d -> %d (slack %d)", before, now, slack)
			}
			return nil
		})
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
	return CheckFunc{Probe: "counters-monotonic", Fn: func() error {
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
	return CheckFunc{Probe: "aggregate-sum", Fn: func() error {
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

// QuotaProbe asserts the selector quota ledger is conserved and fully
// drained: granted == consumed + revoked (+ outstanding, which must be zero
// once every round is sealed or abandoned and parked devices released).
// stats is fetched at check time so the probe sees the post-teardown ledger.
type QuotaLedger struct {
	Granted, Consumed, Revoked, Outstanding int64
}

// QuotaProbe builds the conservation probe from a ledger fetcher.
func QuotaProbe(fetch func() (QuotaLedger, error)) Probe {
	return CheckFunc{Probe: "quota-conservation", Fn: func() error {
		l, err := fetch()
		if err != nil {
			return err
		}
		// Conservation holds at every mailbox-atomic snapshot, so a
		// violation is immediate and permanent — no settling.
		if l.Granted != l.Consumed+l.Revoked+l.Outstanding {
			return fmt.Errorf("ledger leak: granted %d != consumed %d + revoked %d + outstanding %d",
				l.Granted, l.Consumed, l.Revoked, l.Outstanding)
		}
		// Outstanding quota may still be draining through seal/abandon
		// revocations; give teardown a moment.
		return settle(5*time.Second, func() error {
			l, err := fetch()
			if err != nil {
				return err
			}
			if l.Outstanding != 0 {
				return fmt.Errorf("%d quota slot(s) still outstanding after teardown", l.Outstanding)
			}
			return nil
		})
	}}
}
