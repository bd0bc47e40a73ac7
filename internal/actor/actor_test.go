package actor

import (
	"errors"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

// collect spawns an actor that appends every message to a slice guarded by
// a mutex and signals on each receipt.
func collect(s *System, name string) (Ref, func() []Message, chan struct{}) {
	var mu sync.Mutex
	var got []Message
	signal := make(chan struct{}, 1024)
	r := s.Spawn(name, BehaviorFunc(func(ctx *Context, msg Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		signal <- struct{}{}
	}))
	return r, func() []Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]Message(nil), got...)
	}, signal
}

func waitN(t *testing.T, ch chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
}

func TestSendReceiveOrder(t *testing.T) {
	s := NewSystem()
	r, got, sig := collect(s, "a")
	defer s.Shutdown(r)
	for i := 0; i < 100; i++ {
		if err := r.Send(i); err != nil {
			t.Fatal(err)
		}
	}
	waitN(t, sig, 100)
	msgs := got()
	for i, m := range msgs {
		if m.(int) != i {
			t.Fatalf("message order violated at %d: %v", i, m)
		}
	}
}

func TestSequentialProcessing(t *testing.T) {
	// Two concurrent senders; the actor must never run Receive twice at
	// once. Track with an atomic in/out counter.
	s := NewSystem()
	var inFlight, maxInFlight int64
	done := make(chan struct{}, 200)
	r := s.Spawn("seq", BehaviorFunc(func(ctx *Context, msg Message) {
		n := atomic.AddInt64(&inFlight, 1)
		if n > atomic.LoadInt64(&maxInFlight) {
			atomic.StoreInt64(&maxInFlight, n)
		}
		runtime.Gosched()
		atomic.AddInt64(&inFlight, -1)
		done <- struct{}{}
	}))
	defer s.Shutdown(r)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = r.Send(i)
			}
		}()
	}
	wg.Wait()
	waitN(t, done, 200)
	if atomic.LoadInt64(&maxInFlight) != 1 {
		t.Fatalf("max in-flight = %d, want 1", maxInFlight)
	}
}

func TestSendToStoppedActorFails(t *testing.T) {
	s := NewSystem()
	r, _, _ := collect(s, "x")
	r.Stop()
	s.Shutdown()
	if err := r.Send("late"); err == nil {
		t.Fatal("send to stopped actor must fail")
	}
	if !r.Stopped() {
		t.Fatal("Stopped() should be true")
	}
}

func TestWatchCleanStop(t *testing.T) {
	s := NewSystem()
	watcher, got, sig := collect(s, "watcher")
	target := s.Spawn("target", BehaviorFunc(func(ctx *Context, msg Message) {}))
	s.Watch(target, watcher)
	target.Stop()
	waitN(t, sig, 1)
	term, ok := got()[0].(Terminated)
	if !ok || term.Ref != target || term.Failure {
		t.Fatalf("got %+v, want clean Terminated{target}", got()[0])
	}
	s.Shutdown(watcher)
}

func TestWatchPanicIsFailure(t *testing.T) {
	s := NewSystem()
	watcher, got, sig := collect(s, "watcher")
	target := s.Spawn("bomb", BehaviorFunc(func(ctx *Context, msg Message) {
		panic("boom")
	}))
	s.Watch(target, watcher)
	if err := target.Send("go"); err != nil {
		t.Fatal(err)
	}
	waitN(t, sig, 1)
	term := got()[0].(Terminated)
	if !term.Failure || term.Reason != "boom" {
		t.Fatalf("got %+v, want failure with reason boom", term)
	}
	if !target.Stopped() {
		t.Fatal("panicked actor must be stopped")
	}
	s.Shutdown(watcher)
}

func TestWatchAlreadyStopped(t *testing.T) {
	s := NewSystem()
	watcher, _, sig := collect(s, "watcher")
	target := s.Spawn("gone", BehaviorFunc(func(ctx *Context, msg Message) {}))
	target.Stop()
	s.Watch(target, watcher)
	waitN(t, sig, 1) // immediate notification
	s.Shutdown(watcher)
}

func TestPanicIsolation(t *testing.T) {
	// One actor panicking must not take down others.
	s := NewSystem()
	bomb := s.Spawn("bomb", BehaviorFunc(func(ctx *Context, msg Message) { panic("x") }))
	healthy, got, sig := collect(s, "healthy")
	_ = bomb.Send(1)
	if err := healthy.Send("alive"); err != nil {
		t.Fatal(err)
	}
	waitN(t, sig, 1)
	if got()[0] != "alive" {
		t.Fatal("healthy actor should keep processing")
	}
	s.Shutdown(healthy)
}

// lastStep is a Stopper that counts its Receives, stopping itself on "stop"
// and panicking on "boom", and records how many it had seen when OnStop ran.
type lastStep struct {
	received, atStop atomic.Int32
	stopped          chan struct{}
}

func (l *lastStep) Receive(ctx *Context, msg Message) {
	l.received.Add(1)
	switch msg {
	case "stop":
		ctx.Stop()
	case "boom":
		panic(msg)
	}
}

func (l *lastStep) OnStop(*Context) { l.atStop.Store(l.received.Load()); close(l.stopped) }

// TestStopperRunsLast: OnStop runs once, after the last Receive, whether the
// actor was stopped, panicked or was shut down — and Shutdown returns only
// after it ran.
func TestStopperRunsLast(t *testing.T) {
	s := NewSystem()
	spawn := func(name string) (*lastStep, Ref) {
		l := &lastStep{stopped: make(chan struct{})}
		ref := s.Spawn(name, l)
		_ = ref.Send(1)
		return l, ref
	}
	await := func(what string, l *lastStep, want int32) {
		t.Helper()
		select {
		case <-l.stopped:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: OnStop never ran", what)
		}
		if got := l.atStop.Load(); got != want {
			t.Fatalf("%s: OnStop ran after %d Receives, want %d", what, got, want)
		}
	}
	stopped, ref := spawn("stopped")
	_ = ref.Send("stop")
	await("Stop", stopped, 2)
	panicked, ref := spawn("panicked")
	_ = ref.Send("boom")
	await("panic", panicked, 2)
	shut, _ := spawn("shut")
	for shut.received.Load() == 0 {
		runtime.Gosched()
	}
	s.Shutdown()
	select {
	case <-shut.stopped:
	default:
		t.Fatal("Shutdown returned before the actor's OnStop ran")
	}
}

func TestContextSpawnAndStop(t *testing.T) {
	s := NewSystem()
	childMsgs := make(chan Message, 1)
	parent := s.Spawn("parent", BehaviorFunc(func(ctx *Context, msg Message) {
		child := ctx.Spawn("child", BehaviorFunc(func(cctx *Context, m Message) {
			childMsgs <- m
			cctx.Stop()
		}))
		_ = child.Send(msg)
	}))
	_ = parent.Send("hello")
	select {
	case m := <-childMsgs:
		if m != "hello" {
			t.Fatalf("child got %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("child never received")
	}
	s.Shutdown(parent)
}

func TestLockServiceSingleOwner(t *testing.T) {
	s := NewSystem()
	l := NewLockService()
	a := s.Spawn("a", BehaviorFunc(func(ctx *Context, msg Message) {}))
	b := s.Spawn("b", BehaviorFunc(func(ctx *Context, msg Message) {}))
	defer s.Shutdown(a, b)

	if !l.Acquire("pop", a) {
		t.Fatal("first acquire must succeed")
	}
	if l.Acquire("pop", b) {
		t.Fatal("second acquire by other actor must fail")
	}
	if !l.Acquire("pop", a) {
		t.Fatal("re-acquire by owner must succeed")
	}
	if l.Owner("pop") != a {
		t.Fatal("owner should be a")
	}
	l.Release("pop", b) // non-owner release is a no-op
	if l.Owner("pop") != a {
		t.Fatal("non-owner release must not free the lock")
	}
	l.Release("pop", a)
	if l.Owner("pop") != nil {
		t.Fatal("lock should be free")
	}
}

func TestLockServiceStealFromDead(t *testing.T) {
	s := NewSystem()
	l := NewLockService()
	a := s.Spawn("a", BehaviorFunc(func(ctx *Context, msg Message) {}))
	b := s.Spawn("b", BehaviorFunc(func(ctx *Context, msg Message) {}))
	defer s.Shutdown(b)

	l.Acquire("pop", a)
	a.Stop()
	if l.Owner("pop") != nil {
		t.Fatal("dead owner must not be reported")
	}
	if !l.Acquire("pop", b) {
		t.Fatal("acquire from dead owner must succeed")
	}
	if l.Owner("pop") != b {
		t.Fatal("owner should now be b")
	}
}

func TestLockServiceExactlyOnceRespawn(t *testing.T) {
	// Many contenders race to steal a dead owner's lock; exactly one wins.
	s := NewSystem()
	l := NewLockService()
	dead := s.Spawn("dead", BehaviorFunc(func(ctx *Context, msg Message) {}))
	l.Acquire("pop", dead)
	dead.Stop()

	var winners int64
	var wg sync.WaitGroup
	refs := make([]Ref, 16)
	for i := range refs {
		refs[i] = s.Spawn("contender", BehaviorFunc(func(ctx *Context, msg Message) {}))
	}
	for _, r := range refs {
		wg.Add(1)
		go func(r Ref) {
			defer wg.Done()
			if l.Acquire("pop", r) {
				atomic.AddInt64(&winners, 1)
			}
		}(r)
	}
	wg.Wait()
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
	s.Shutdown(refs...)
}

func TestShutdownRacesConcurrentSpawns(t *testing.T) {
	// Actors spawned, and goroutines started, concurrently with Shutdown (an
	// actor mid-dispatch creating a child, or plain racing callers) must not
	// leave goroutines the shutdown never stops — Shutdown would hang in
	// wg.Wait forever.
	sys := NewSystem()
	stop := make(chan struct{})
	var spawner sync.WaitGroup
	var spawned atomic.Int64
	spawner.Add(1)
	go func() {
		defer spawner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.Spawn("storm", BehaviorFunc(func(ctx *Context, msg Message) {}))
			sys.Go(func() { defer sys.Done(); runtime.Gosched() })
			spawned.Add(1)
		}
	}()
	for spawned.Load() < 100 {
		runtime.Gosched()
	}

	done := make(chan struct{})
	go func() {
		sys.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on actors spawned during shutdown")
	}
	// Post-shutdown spawns return already-stopped refs.
	if r := sys.Spawn("late", BehaviorFunc(func(ctx *Context, msg Message) {})); !r.Stopped() {
		t.Fatal("spawn after Shutdown must return a stopped ref")
	}
	if sys.Go(func() { defer sys.Done(); t.Error("a goroutine ran after Shutdown") }) {
		t.Fatal("Go after Shutdown must start nothing")
	}
	close(stop)
	spawner.Wait()
}

func TestWatchAfterTerminationPreservesFailure(t *testing.T) {
	// A watcher registered after the target already died from a panic must
	// still see Failure=true — supervision decisions (respawn or not) hang
	// on that flag.
	clock := simclock.New(time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC))
	sys := NewSystem(clock)
	defer sys.Shutdown()
	victim := sys.Spawn("victim", BehaviorFunc(func(ctx *Context, msg Message) {
		panic("boom")
	}))
	_ = victim.Send("die")
	if err := clock.Run(0, victim.Stopped); err != nil {
		t.Fatal(err)
	}

	got := make(chan Terminated, 1)
	watcher := sys.Spawn("late-watcher", BehaviorFunc(func(ctx *Context, msg Message) {
		if term, ok := msg.(Terminated); ok {
			got <- term
		}
	}))
	sys.Watch(victim, watcher)
	select {
	case term := <-got:
		if !term.Failure {
			t.Fatal("late watcher lost the Failure flag")
		}
		if term.Reason != "boom" {
			t.Fatalf("late watcher lost the failure reason: %v", term.Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late watcher never notified")
	}
}

// TestContextClock: a behavior tells the time and waits on its system's
// clock — ctx.After delivers a message to Self at its virtual instant, a
// stopped timer delivers nothing — and a system built with no clock, or a
// nil one, runs on the wall clock.
func TestContextClock(t *testing.T) {
	start := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := simclock.New(start)
	sys := NewSystem(clock)
	defer sys.Shutdown()
	type arm struct{}
	type seen struct {
		msg string
		at  time.Duration
	}
	got := make(chan seen, 4)
	ref := sys.Spawn("waiter", BehaviorFunc(func(ctx *Context, msg Message) {
		switch m := msg.(type) {
		case arm:
			ctx.After(3*time.Second, "kept")
			ctx.After(time.Second, "cancelled").Stop()
			got <- seen{"armed", ctx.Now().Sub(start)}
		case string:
			got <- seen{m, ctx.Now().Sub(start)}
		}
	}))
	_ = ref.Send(arm{})
	if s := <-got; s != (seen{"armed", 0}) {
		t.Fatalf("first message: %+v", s)
	}
	if n := clock.Advance(3*time.Second - time.Nanosecond); n != 0 {
		t.Fatalf("%d timers fired before the first deadline (the stopped one among them?)", n)
	}
	clock.Advance(time.Nanosecond)
	if s := <-got; s != (seen{"kept", 3 * time.Second}) {
		t.Fatalf("timer message: %+v", s)
	}

	// Sleep parks its caller until d has passed or its gate is closed; two
	// sleepers share one gate.
	var stop Gate
	woke := make(chan time.Duration, 3)
	for _, d := range []time.Duration{time.Minute, time.Hour} {
		clock.Go(func() {
			if Sleep(clock, d, &stop) {
				woke <- clock.Now().Sub(start)
			}
		})
	}
	clock.Go(func() { Sleep(clock, time.Second, nil); woke <- clock.Now().Sub(start) })
	if err := clock.Run(time.Minute, func() bool { return len(woke) == 2 }); err != nil {
		t.Fatal(err)
	}
	if a, b := <-woke, <-woke; a != 3*time.Second+time.Second || b != 3*time.Second+time.Minute {
		t.Fatalf("sleeps of 1s and 1m ended at +%v and +%v", a, b)
	}
	stop.Close()
	if err := clock.Run(0, func() bool { return true }); err != nil || len(woke) != 0 {
		t.Fatalf("an interrupted sleep reported its hour passed (%v)", err)
	}

	for _, sys := range []*System{NewSystem(), NewSystem(nil)} {
		if sys.Clock() != Wall {
			t.Fatalf("default clock is %T, want the wall clock", sys.Clock())
		}
	}
}

// TestRunNamesAWaitForCycle: two actors, each blocked in Receive waiting for
// a reply from the other, are a wait-for cycle no timer can break. Run
// returns at once with ErrDeadlock and names both wait sites by file and
// line.
func TestRunNamesAWaitForCycle(t *testing.T) {
	clock := simclock.New(time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC))
	sys := NewSystem(clock)
	defer sys.Shutdown()
	net := transport.NewMemNetwork(clock)
	l, err := net.Listen("pair")
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.Dial("pair")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ping := sys.Spawn("ping", BehaviorFunc(func(*Context, Message) {
		_, _ = a.Recv() // awaits pong's reply
	}))
	pong := sys.Spawn("pong", BehaviorFunc(func(*Context, Message) {
		_, _ = b.Recv() // awaits ping's reply
	}))
	_, _ = ping.Send("go"), pong.Send("go")

	start := time.Now()
	err = clock.Run(time.Hour, nil)
	if !errors.Is(err, simclock.ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	t.Log(err)
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("the deadlock took %v of wall time to report", wall)
	}
	for _, site := range []string{`awaits pong`, `awaits ping`} {
		line := lineOf(t, site)
		if !regexp.MustCompile(`actor_test\.go:` + line + `\b`).MatchString(err.Error()) {
			t.Fatalf("the report does not name the wait site actor_test.go:%s (%s):\n%v", line, site, err)
		}
	}
}

// lineOf is the line of this file holding marker.
func lineOf(t *testing.T, marker string) string {
	t.Helper()
	_, file, _, _ := runtime.Caller(0)
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "// "+marker) {
			return strconv.Itoa(i + 1)
		}
	}
	t.Fatalf("no line marked %q", marker)
	return ""
}

// TestSpawnTakesAStoppedActorsRing: the mailbox ring an actor grew goes, at
// its stop, to the system's stock, and the next Spawn takes it instead of
// growing one of its own.
func TestSpawnTakesAStoppedActorsRing(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()
	block := make(chan struct{})
	a := sys.Spawn("a", BehaviorFunc(func(*Context, Message) { <-block }))
	for i := 0; i < 40; i++ {
		_ = a.Send(i) // the first blocks the actor; the rest grow its ring to 64 slots
	}
	close(block)
	a.Stop()
	for deadline := time.Now().Add(10 * time.Second); len(sys.rings) == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("a stopped actor's ring never reached the stock")
		}
	}
	b := sys.Spawn("b", BehaviorFunc(func(*Context, Message) {}))
	if n := len(sys.rings); n != 0 {
		t.Fatalf("a Spawn left %d rings in the stock, want it to take the one", n)
	}
	if ring := b.(*localRef).mailbox.Retire(); len(ring) != 64 {
		t.Fatalf("the next actor's ring has %d slots, want the stopped actor's 64", len(ring))
	}
}
