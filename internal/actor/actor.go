// Package actor implements the Actor Programming Model the FL server is
// built on (Sec. 4.1): actors process their mailbox strictly sequentially,
// communicate only by message passing, can spawn ephemeral children, and
// keep all state in memory. Supervision is watch-based: watchers receive a
// Terminated message when an actor stops or panics, which is how the
// Selector layer respawns a dead Coordinator (Sec. 4.4).
//
// Ref is an interface so references are location-transparent (Sec. 4.1:
// actor instances "may be co-located on the same process or distributed
// across multiple data centers"): the local implementation below is a
// mailbox in this process, and internal/remote provides an implementation
// that marshals messages over a transport connection to a peer process.
// In-process sends stay on the fast path — a local Send is a queue
// operation, never a codec hop.
package actor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// Clock is the one way time gets into a process: every wait and every
// reading of the time in it goes through the Clock of its actor System —
// the wall clock unless whoever built the process handed it another. The
// rest of the tree names the clock, and the Gates and Queues that park on it,
// through this package, which carries them.
type (
	Clock        = simclock.Clock
	Timer        = simclock.Timer
	Gate         = simclock.Gate
	Queue[T any] = simclock.Queue[T]
)

var (
	// Wall is the default Clock.
	Wall = simclock.Wall
	// OrWall is the first of the clocks given that is not nil, else Wall.
	OrWall = simclock.OrWall
	// Sleep waits on a clock until d has passed or a gate closes.
	Sleep = simclock.Sleep
)

// NewQueue returns an empty Queue of the given capacity.
func NewQueue[T any](capacity int) *Queue[T] { return simclock.NewQueue[T](capacity) }

// Message is anything sent to an actor.
type Message interface{}

// Ref is a location-transparent handle to a running actor. Implementations
// must be comparable (the supervision graph and the lock service key on Ref
// identity), which every pointer implementation is.
type Ref interface {
	// Name returns the actor's name.
	Name() string
	// Send enqueues a message. It returns an error when the actor has
	// stopped or (for remote refs) the peer is unreachable.
	Send(msg Message) error
	// Stop terminates the actor. Safe to call more than once and from any
	// goroutine.
	Stop()
	// Stopped reports whether the actor has terminated. For remote refs
	// this reflects peer liveness, so lock leases held by a dead peer are
	// stealable exactly like leases held by a dead local actor.
	Stopped() bool
}

// Terminated is delivered to watchers when an actor stops. Failure is true
// when the actor died from a panic rather than a clean stop.
type Terminated struct {
	Ref     Ref
	Failure bool
	// Reason carries the panic value for failures.
	Reason interface{}
}

// Behavior is an actor's message handler. Receive is never called
// concurrently for one actor instance.
type Behavior interface {
	Receive(ctx *Context, msg Message)
}

// Stopper is a Behavior whose OnStop runs on its goroutine after its last
// Receive, however it stopped; Shutdown waits for it.
type Stopper interface{ OnStop(ctx *Context) }

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(ctx *Context, msg Message)

// Receive implements Behavior.
func (f BehaviorFunc) Receive(ctx *Context, msg Message) { f(ctx, msg) }

// Context is passed to Receive, giving the behavior access to its own ref
// and the system for spawning and watching.
type Context struct {
	Self   Ref
	System *System
}

// Spawn creates a child actor.
func (c *Context) Spawn(name string, b Behavior) Ref { return c.System.Spawn(name, b) }

// Watch registers Self to receive Terminated when target stops.
func (c *Context) Watch(target Ref) { c.System.watch(target, c.Self) }

// Stop stops this actor after the current message.
func (c *Context) Stop() { c.Self.Stop() }

// Now is the time on the system's clock.
func (c *Context) Now() time.Time { return c.System.clock.Now() }

// After sends msg to Self once d has passed on the system's clock, unless the
// returned Timer is stopped first: a behavior waits — for a window, a
// deadline, its next tick — by sending itself a message.
func (c *Context) After(d time.Duration, msg Message) Timer {
	self := c.Self
	return c.System.clock.AfterFunc(d, func() { _ = self.Send(msg) })
}

const mailboxSize = 1024

// localRef is the in-process Ref implementation: a mailbox drained by one
// goroutine.
type localRef struct {
	name    string
	mailbox *Queue[Message]
	stopped atomic.Bool
	once    sync.Once
	sys     *System
	// failure/reason record how the actor terminated. Written inside
	// once.Do before stopped is set, so any goroutine that observes
	// Stopped() reads them safely.
	failure bool
	reason  interface{}
}

// Name implements Ref.
func (r *localRef) Name() string { return r.name }

// Send implements Ref. It returns an error when the actor has stopped; it
// blocks when the mailbox is full (backpressure).
func (r *localRef) Send(msg Message) error {
	if !r.mailbox.Push(msg, r.sys.clock) {
		return fmt.Errorf("actor: %s is stopped", r.name)
	}
	return nil
}

// Stop implements Ref. Messages already enqueued may be dropped.
func (r *localRef) Stop() { r.stop(false, nil) }

func (r *localRef) stop(failure bool, reason interface{}) {
	r.once.Do(func() {
		r.failure, r.reason = failure, reason
		r.stopped.Store(true)
		r.mailbox.Close()
		r.sys.notifyTermination(r, failure, reason)
	})
}

// Stopped implements Ref.
func (r *localRef) Stopped() bool { return r.stopped.Load() }

// System owns the actor registry and supervision graph. Actors in one
// system share an address space, mirroring the paper's note that instances
// may be co-located or distributed; distribution happens at the transport
// layer (internal/remote), not here.
type System struct {
	clock    Clock
	mu       sync.Mutex
	watchers map[Ref][]Ref
	actors   []*localRef
	wg       sync.WaitGroup
	// down is set by Shutdown; later Spawns return already-stopped refs,
	// so a concurrent spawn (an actor mid-dispatch creating a child) can
	// never outlive Shutdown's wait.
	down bool
	// rings holds stopped actors' mailbox rings for later Spawns, so an
	// ephemeral actor (a round's) takes the slots a predecessor grew. 32
	// outlast the rounds lingering at once on a busy edge and bound what is
	// kept to 32 rings.
	rings chan []Message
}

// NewSystem returns an empty actor system on the given clock — the wall
// clock when none (or nil) is given; variadic so that NewSystem() stays what
// callers that never think about time write.
func NewSystem(clock ...Clock) *System {
	return &System{clock: OrWall(clock...), watchers: make(map[Ref][]Ref), rings: make(chan []Message, 32)}
}

// Clock returns the system's clock, for the parts of a process that wait
// outside any actor (a peer link's heartbeat, the accept path's steering).
func (s *System) Clock() Clock { return s.clock }

// Spawn starts an actor with the given behavior. The actor's goroutine
// processes the mailbox until Stop; a panic in Receive terminates the actor
// and notifies watchers with Failure=true ("ephemeral actors", Sec. 4.2 —
// failure means losing the actor, not the process).
func (s *System) Spawn(name string, b Behavior) Ref {
	r := &localRef{
		name:    name,
		mailbox: NewQueue[Message](mailboxSize),
		sys:     s,
	}
	ctx := &Context{Self: r, System: s}
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		r.stop(false, nil)
		return r
	}
	s.actors = append(s.actors, r)
	select {
	case ring := <-s.rings:
		r.mailbox.Reuse(ring)
	default:
	}
	// Ephemeral actors (one EdgeRound and a handful of Aggregators
	// per round) would grow the registry forever on a long-running server;
	// compact stopped refs periodically.
	if len(s.actors)%256 == 0 {
		live := s.actors[:0]
		for _, a := range s.actors {
			if !a.Stopped() {
				live = append(live, a)
			}
		}
		s.actors = live
	}
	// Inside the lock: the down check, the registry append and the
	// WaitGroup increment must be atomic with respect to Shutdown's
	// snapshot + Wait, or an Add could race a blocked Wait.
	s.wg.Add(1)
	s.mu.Unlock()
	s.clock.Go(func() {
		defer s.wg.Done()
		defer func() {
			if ring := r.mailbox.Retire(); ring != nil {
				select {
				case s.rings <- ring:
				default:
				}
			}
		}()
		if st, ok := b.(Stopper); ok {
			defer st.OnStop(ctx)
		}
		for {
			msg, ok := r.mailbox.Pop(s.clock)
			if !ok || r.Stopped() {
				return
			}
			s.dispatch(ctx, r, b, msg)
		}
	})
	return r
}

// Go runs fn on a goroutine of s's clock that Shutdown waits for, and
// reports whether it started: none does once Shutdown has begun. fn calls
// Done as it returns (defer s.Done()), so that its closure is the
// goroutine's one object.
func (s *System) Go(fn func()) bool {
	s.mu.Lock() // as in Spawn, the down check and wg.Add are one step
	defer s.mu.Unlock()
	if !s.down {
		s.wg.Add(1)
		s.clock.Go(fn)
	}
	return !s.down
}

// Done ends a goroutine Go started.
func (s *System) Done() { s.wg.Done() }

// dispatch runs one Receive with panic isolation.
func (s *System) dispatch(ctx *Context, r *localRef, b Behavior, msg Message) {
	defer func() {
		if rec := recover(); rec != nil {
			r.stop(true, rec)
		}
	}()
	b.Receive(ctx, msg)
}

// Watch registers watcher to receive Terminated{target} when target stops.
// If target is already stopped, the notification is delivered immediately —
// preserving how it terminated, so a watcher registered just after a panic
// still sees Failure=true and can respawn. Termination notifications fire
// only for actors spawned in this system; watching a remote ref delivers
// immediately when the peer is already down, and is otherwise a no-op
// (remote liveness is the remote package's heartbeat concern).
func (s *System) watch(target, watcher Ref) {
	s.mu.Lock()
	if target.Stopped() {
		s.mu.Unlock()
		failure, reason := true, interface{}(nil)
		if lr, ok := target.(*localRef); ok {
			failure, reason = lr.failure, lr.reason
		}
		_ = watcher.Send(Terminated{Ref: target, Failure: failure, Reason: reason})
		return
	}
	if _, ok := target.(*localRef); !ok {
		s.mu.Unlock()
		return
	}
	s.watchers[target] = append(s.watchers[target], watcher)
	s.mu.Unlock()
}

// Watch is the non-actor entry point for watching (e.g. tests, transports).
func (s *System) Watch(target, watcher Ref) { s.watch(target, watcher) }

func (s *System) notifyTermination(r *localRef, failure bool, reason interface{}) {
	s.mu.Lock()
	ws := s.watchers[r]
	delete(s.watchers, r)
	s.mu.Unlock()
	for _, w := range ws {
		_ = w.Send(Terminated{Ref: r, Failure: failure, Reason: reason})
	}
}

// Shutdown stops the given actors, then every remaining actor ever spawned
// in the system (ephemeral children included), and waits for all their
// goroutines and every one Go started. Spawns racing the shutdown (an actor
// mid-dispatch creating a child, a watcher respawning a Coordinator) return
// already-stopped refs once the down flag is set, and Go starts nothing, so
// the registry snapshot below is complete and the wait cannot hang on an
// actor nobody stops. Used at process teardown.
func (s *System) Shutdown(refs ...Ref) {
	for _, r := range refs {
		r.Stop()
	}
	s.mu.Lock()
	s.down = true
	all := append([]*localRef(nil), s.actors...)
	s.mu.Unlock()
	for _, r := range all {
		r.Stop()
	}
	s.wg.Wait()
}
