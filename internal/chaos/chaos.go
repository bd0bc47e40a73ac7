// Package chaos is the deterministic fault-injection layer for the sharded
// FL deployment: it wraps transport.Conn / transport.Listener link surfaces
// with composable, seeded fault schedules — per-link-role drop, delay,
// jitter, duplication, corruption, bandwidth caps, connection resets, and
// partition windows addressable by wall-clock offset or round number.
//
// Every stochastic decision on a link is a pure function of (scenario seed,
// link role, link ordinal within the role, message index), so a scenario
// replays the same fault schedule from one seed. The package is entirely
// opt-in at construction: production code never imports it, a nil *Injector
// wraps nothing, and the wrapped interfaces add zero cost to un-wrapped
// connections.
//
// chaos.Verify (verify.go) is the other half: an invariant checker run
// after every scenario, asserting checkpoint-lineage monotonicity, conn and
// goroutine accounting, selector quota conservation, aggregate-sum
// correctness, and /metrics counter monotonicity.
package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/transport"
)

// Role labels a class of links (and, with a ":suffix", one specific link
// group). Rules and windows match by exact role or by "class:" prefix, so a
// rule for RoleShard applies to "shard", "shard:0", "shard:1", ...
type Role string

// The link roles of the sharded deployment. Drivers may suffix them
// (e.g. "shard:2") to address one shard's links.
const (
	// RoleDevice is a device↔selector link.
	RoleDevice Role = "device"
	// RoleShard is a shard↔coordinator link.
	RoleShard Role = "shard"
)

// matchRole reports whether a rule/window role selects a link role:
// empty matches everything, exact matches, and a bare class matches any
// "class:suffix" link.
func matchRole(rule, link Role) bool {
	if rule == "" || rule == link {
		return true
	}
	return strings.HasPrefix(string(link), string(rule)+":")
}

// Rule is one fault profile applied to every link whose role matches.
// Later matching rules override a field when they set it (non-zero).
type Rule struct {
	Role Role
	// Drop / Dup / Corrupt are per-message probabilities in [0,1).
	Drop    float64
	Dup     float64
	Corrupt float64
	// Delay defers every message; Jitter adds a uniform [0,Jitter) extra.
	Delay  time.Duration
	Jitter time.Duration
	// Rate caps the link at bytes/second (0 = unlimited). Deliveries are
	// deferred so cumulative bytes never exceed the cap.
	Rate int64
	// Queue bounds the deferred-delivery queue (default 256); an overflow
	// drops the message and records FaultQueueFull.
	Queue int
}

// delayed reports whether the rule needs the deferred-delivery path.
func (r Rule) delayed() bool { return r.Delay > 0 || r.Jitter > 0 || r.Rate > 0 }

// Window is one partition window: while active, sends on matching links are
// black-holed and inbound messages discarded (a bidirectional blackhole,
// like a mid-network partition — the endpoints learn only through silence).
// A window is addressed by wall offset from the injector's start, or — when
// Round > 0 — opens when AdvanceRound reaches that round.
type Window struct {
	Role  Role
	At    time.Duration
	Round int64
	Dur   time.Duration
}

// Reset schedules one connection teardown: the first send on a matching
// link at or after the trigger fails and the connection closes, as a
// mid-stream RST would. Each reset fires at most once across the whole
// scenario — the redialed replacement link is healthy.
type Reset struct {
	Role  Role
	At    time.Duration
	Round int64
}

// Spec is a composable fault schedule.
type Spec struct {
	Rules      []Rule
	Partitions []Window
	Resets     []Reset
}

// effective folds every rule matching role into one profile.
func (s Spec) effective(role Role) Rule {
	var out Rule
	out.Role = role
	for _, r := range s.Rules {
		if !matchRole(r.Role, role) {
			continue
		}
		if r.Drop > 0 {
			out.Drop = r.Drop
		}
		if r.Dup > 0 {
			out.Dup = r.Dup
		}
		if r.Corrupt > 0 {
			out.Corrupt = r.Corrupt
		}
		if r.Delay > 0 {
			out.Delay = r.Delay
		}
		if r.Jitter > 0 {
			out.Jitter = r.Jitter
		}
		if r.Rate > 0 {
			out.Rate = r.Rate
		}
		if r.Queue > 0 {
			out.Queue = r.Queue
		}
	}
	if out.Queue <= 0 {
		out.Queue = 256
	}
	return out
}

// windowState resolves a Window's activation: offset windows are anchored
// to the injector start; round windows open when their round arrives.
type windowState struct {
	w      Window
	opened atomic.Int64 // unix nanos; 0 = not yet open (round windows)
}

// Injector owns one scenario's fault state: the seed, the schedule, the
// trace, per-role link ordinals, and conn accounting. Wrap the listener or
// dialer of every link surface under test; a nil *Injector wraps nothing
// (every method is nil-safe), so "chaos off" is the zero value everywhere.
type Injector struct {
	seed  uint64
	spec  Spec
	clock actor.Clock
	start time.Time
	trace *Trace

	mu         sync.Mutex
	ordinals   map[Role]int
	windows    []*windowState
	resets     []Reset
	resetFired []bool

	round atomic.Int64

	opened atomic.Int64
	closed atomic.Int64
}

// New builds an injector for one scenario on the clock of the processes
// whose links it wraps (nil: the wall clock). Offset-addressed windows and
// resets count from now on that clock, and delayed deliveries wait on it.
func New(seed uint64, spec Spec, clock actor.Clock) *Injector {
	clock = actor.OrWall(clock)
	in := &Injector{
		seed:       seed,
		spec:       spec,
		clock:      clock,
		start:      clock.Now(),
		trace:      newTrace(),
		ordinals:   make(map[Role]int),
		resets:     spec.Resets,
		resetFired: make([]bool, len(spec.Resets)),
	}
	for i := range spec.Partitions {
		ws := &windowState{w: spec.Partitions[i]}
		if ws.w.Round <= 0 {
			ws.opened.Store(in.start.Add(ws.w.At).UnixNano())
		}
		in.windows = append(in.windows, ws)
	}
	return in
}

// Trace exposes the recorded fault trace.
func (in *Injector) Trace() *Trace {
	if in == nil {
		return newTrace()
	}
	return in.trace
}

// OpenConns is the number of wrapped connections not yet closed — the conn
// accounting chaos.Verify checks after teardown.
func (in *Injector) OpenConns() int64 {
	if in == nil {
		return 0
	}
	return in.opened.Load() - in.closed.Load()
}

// AdvanceRound opens every round-addressed window and reset whose round has
// arrived. Drivers call it as the coordinator commits rounds.
func (in *Injector) AdvanceRound(round int64) {
	if in == nil {
		return
	}
	for {
		cur := in.round.Load()
		if round <= cur {
			return
		}
		if in.round.CompareAndSwap(cur, round) {
			break
		}
	}
	now := in.clock.Now().UnixNano()
	for _, ws := range in.windows {
		if ws.w.Round > 0 && ws.w.Round <= round {
			ws.opened.CompareAndSwap(0, now)
		}
	}
}

// partitioned reports whether any window covering role is active at t.
func (in *Injector) partitioned(role Role, t time.Time) bool {
	for _, ws := range in.windows {
		if !matchRole(ws.w.Role, role) {
			continue
		}
		opened := ws.opened.Load()
		if opened == 0 {
			continue
		}
		at := time.Unix(0, opened)
		if !t.Before(at) && t.Before(at.Add(ws.w.Dur)) {
			return true
		}
	}
	return false
}

// claimReset returns the index of a scheduled reset due for role at t and
// marks it fired, or -1. The check-and-claim is atomic so exactly one send,
// on one connection, fires each reset.
func (in *Injector) claimReset(role Role, t time.Time) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.resets {
		if in.resetFired[i] || !matchRole(r.Role, role) {
			continue
		}
		if r.Round > 0 {
			if in.round.Load() >= r.Round {
				in.resetFired[i] = true
				return i
			}
			continue
		}
		if !t.Before(in.start.Add(r.At)) {
			in.resetFired[i] = true
			return i
		}
	}
	return -1
}

// linkSeed derives one link's RNG seed from (scenario seed, role, ordinal)
// via FNV-1a + splitmix64 — stable across runs and platforms.
func linkSeed(seed uint64, role Role, ordinal int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(role))
	x := seed ^ h.Sum64() ^ (uint64(ordinal) * 0x9e3779b97f4a7c15)
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WrapConn wraps one established connection in the role's fault profile.
// Nil injector (or a profile with no faults and no schedule entries at all)
// returns conn unchanged.
func (in *Injector) WrapConn(role Role, conn transport.Conn) transport.Conn {
	if in == nil {
		return conn
	}
	in.mu.Lock()
	ord := in.ordinals[role]
	in.ordinals[role] = ord + 1
	in.mu.Unlock()
	in.opened.Add(1)
	return newFaultConn(in, role, ord, conn, in.spec.effective(role))
}

// WrapListener wraps every accepted connection in the role's fault profile.
func (in *Injector) WrapListener(role Role, l transport.Listener) transport.Listener {
	if in == nil {
		return l
	}
	return &faultListener{in: in, role: role, inner: l}
}

// WrapDialer wraps every dialed connection in the role's fault profile.
func (in *Injector) WrapDialer(role Role, dial func() (transport.Conn, error)) func() (transport.Conn, error) {
	if in == nil {
		return dial
	}
	return func() (transport.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return in.WrapConn(role, conn), nil
	}
}

// Plan renders the deterministic fault plan — the seed and the schedule, in
// the grammar ParseSpec reads — that two runs with the same seed share
// exactly. Drivers log it, so a failing scenario is reproduced by passing
// the logged line's seed and spec back in.
func (in *Injector) Plan() string {
	if in == nil {
		return "chaos: disabled"
	}
	return strings.TrimRight(fmt.Sprintf("chaos: seed=%d %s", in.seed, in.spec.render()), " ")
}

// FaultCounts returns the per-kind totals sorted by kind, for stable
// formatting in experiment output.
func (in *Injector) FaultCounts() []string {
	if in == nil {
		return nil
	}
	counts := in.trace.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]string, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return out
}

// faultListener wraps accepted connections.
type faultListener struct {
	in    *Injector
	role  Role
	inner transport.Listener
}

func (l *faultListener) Accept() (transport.Conn, error) {
	conn, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(l.role, conn), nil
}

func (l *faultListener) Close() error { return l.inner.Close() }
func (l *faultListener) Addr() string { return l.inner.Addr() }
