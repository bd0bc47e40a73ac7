package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// drainConn keeps a pipe's far end from filling: mem pipes are buffered, but
// heavy tests may overflow the buffer otherwise.
func drainConn(c transport.Conn) {
	go func() {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
}

// runScript pushes a fixed message sequence through a wrapped link and
// returns the deterministic trace keys.
func runScript(t *testing.T, seed uint64, n int) []string {
	t.Helper()
	in := New(seed, Spec{Rules: []Rule{{Role: RoleShard, Drop: 0.2, Dup: 0.1, Corrupt: 0.1}}}, nil)
	a, b := transport.Pipe()
	drainConn(b)
	conn := in.WrapConn(RoleShard, a)
	for i := 0; i < n; i++ {
		_ = conn.Send(protocol.StripeSeal{Round: int64(i), Sum: []byte{1, 2, 3, 4}})
	}
	_ = conn.Close()
	var keys []string
	for _, e := range in.Trace().events() {
		keys = append(keys, e.Key())
	}
	return keys
}

func TestSameSeedIdenticalTrace(t *testing.T) {
	first := runScript(t, 42, 500)
	second := runScript(t, 42, 500)
	if len(first) == 0 {
		t.Fatal("no faults injected at 20% drop over 500 messages")
	}
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("trace diverges at %d: %q vs %q", i, first[i], second[i])
		}
	}
	other := runScript(t, 43, 500)
	if len(other) == len(first) && strings.Join(other, "\n") == strings.Join(first, "\n") {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDecisionStreamIgnoresOutcome(t *testing.T) {
	// The decision at message index i must be a pure function of
	// (seed, role, ordinal, i): the raw draw stream from two conns with the
	// same link seed is identical regardless of wall time, partition state,
	// or what Send did with earlier results.
	inA := New(9, Spec{Rules: []Rule{{Role: RoleShard, Drop: 0.5, Jitter: time.Millisecond}}}, nil)
	inB := New(9, Spec{
		Rules:      []Rule{{Role: RoleShard, Drop: 0.5, Jitter: time.Millisecond}},
		Partitions: []Window{{Role: RoleShard, At: 0, Dur: time.Hour}},
	}, nil)
	pa1, pa2 := transport.Pipe()
	pb1, pb2 := transport.Pipe()
	drainConn(pa2)
	drainConn(pb2)
	ca := inA.WrapConn(RoleShard, pa1).(*faultConn)
	cb := inB.WrapConn(RoleShard, pb1).(*faultConn)
	for i := 0; i < 200; i++ {
		ia, da := ca.draw()
		ib, db := cb.draw()
		if ia != ib || da != db {
			t.Fatalf("draw %d differs: (%d %+v) vs (%d %+v)", i, ia, da, ib, db)
		}
	}
	_ = ca.Close()
	_ = cb.Close()
}

// receiver reads one message from c on clock's rig and reports whether it
// has; once the rig is idle, a false is final.
func receiver(clock *simclock.Virtual, c transport.Conn) func() bool {
	var got atomic.Bool
	clock.Go(func() {
		if _, err := c.Recv(); err == nil {
			got.Store(true)
		}
	})
	return got.Load
}

// idle runs clock's rig until nothing can run without time passing.
func idle(t *testing.T, clock *simclock.Virtual) {
	t.Helper()
	if err := clock.Run(0, func() bool { return true }); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionWindowBlackholes(t *testing.T) {
	// The window is anchored on the injector's clock: it holds to its last
	// nanosecond and not a nanosecond longer.
	clock := simclock.New(time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC))
	in := New(1, Spec{Partitions: []Window{{Role: RoleShard, At: 0, Dur: 200 * time.Millisecond}}}, clock)
	a, b := transport.Pipe(clock)
	conn := in.WrapConn(RoleShard, a)
	arrived := receiver(clock, b)
	for _, step := range []time.Duration{0, 200*time.Millisecond - time.Nanosecond} {
		clock.Advance(step)
		if err := conn.Send(protocol.CheckinRate{}); err != nil {
			t.Fatalf("partitioned send should black-hole, got error: %v", err)
		}
	}
	if idle(t, clock); arrived() {
		t.Fatal("message crossed an active partition")
	}
	// After the window closes, traffic flows again.
	clock.Advance(time.Nanosecond)
	if err := conn.Send(protocol.CheckinRate{}); err != nil {
		t.Fatalf("post-partition send: %v", err)
	}
	if idle(t, clock); !arrived() {
		t.Fatal("message did not flow after the partition healed")
	}
	counts := in.Trace().Counts()
	if counts[FaultPartition] != 2 {
		t.Fatalf("want 2 partition faults, got %v", counts)
	}
	_ = conn.Close()
}

func TestScheduledReset(t *testing.T) {
	in := New(1, Spec{Resets: []Reset{{Role: RoleShard, At: 0}}}, nil)
	a, b := transport.Pipe()
	drainConn(b)
	conn := in.WrapConn(RoleShard, a)
	if err := conn.Send(protocol.CheckinRate{}); err == nil {
		t.Fatal("send across a due reset should fail")
	}
	if err := conn.Send(protocol.CheckinRate{}); err == nil {
		t.Fatal("send on a reset (closed) conn should fail")
	}
	if got := in.OpenConns(); got != 0 {
		t.Fatalf("reset conn still counted open: %d", got)
	}
	if in.Trace().Counts()[FaultReset] != 1 {
		t.Fatalf("want exactly 1 reset fault, got %v", in.Trace().Counts())
	}
}

func TestRoundAddressedWindow(t *testing.T) {
	in := New(1, Spec{Partitions: []Window{{Role: RoleShard, Round: 3, Dur: time.Hour}}}, nil)
	if in.partitioned(RoleShard, time.Now()) {
		t.Fatal("round window open before its round")
	}
	in.AdvanceRound(2)
	if in.partitioned(RoleShard, time.Now()) {
		t.Fatal("round window open at round 2, scheduled for 3")
	}
	in.AdvanceRound(3)
	if !in.partitioned(RoleShard, time.Now()) {
		t.Fatal("round window not open at its round")
	}
}

func TestDelayDefersDelivery(t *testing.T) {
	clock := simclock.New(time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC))
	in := New(1, Spec{Rules: []Rule{{Role: RoleDevice, Delay: 120 * time.Millisecond}}}, clock)
	a, b := transport.Pipe(clock)
	conn := in.WrapConn(RoleDevice, a)
	if err := conn.Send(protocol.CheckinRate{}); err != nil {
		t.Fatalf("send: %v", err)
	}
	arrived := receiver(clock, b)
	if err := clock.Run(120*time.Millisecond-time.Nanosecond, arrived); !errors.Is(err, simclock.ErrHorizon) {
		t.Fatalf("delayed message arrived before its delivery time (%v)", err)
	}
	if err := clock.Run(time.Nanosecond, arrived); err != nil {
		t.Fatalf("delayed message never arrived at its delivery time: %v", err)
	}
	_ = conn.Close()
	// The sender goroutine must wind down; the receiver has returned.
	if idle(t, clock); clock.Goroutines() != 0 {
		t.Fatalf("%d goroutine(s) leaked", clock.Goroutines())
	}
}

func TestQueueFullDrops(t *testing.T) {
	in := New(1, Spec{Rules: []Rule{{Role: RoleDevice, Delay: time.Hour, Queue: 2}}}, nil)
	a, b := transport.Pipe()
	drainConn(b)
	conn := in.WrapConn(RoleDevice, a)
	for i := 0; i < 10; i++ {
		if err := conn.Send(protocol.CheckinRate{}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if in.Trace().Counts()[FaultQueueFull] == 0 {
		t.Fatal("no queue-full faults recorded with depth 2 and an hour delay")
	}
	_ = conn.Close()
}

func TestCorruptStripeSealDetectable(t *testing.T) {
	in := New(1, Spec{Rules: []Rule{{Role: RoleShard, Corrupt: 0.999999}}}, nil)
	a, b := transport.Pipe()
	conn := in.WrapConn(RoleShard, a)
	orig := protocol.StripeSeal{Round: 1, Sum: []byte{9, 9, 9, 9, 9, 9, 9, 9}}
	if err := conn.Send(orig); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	seal, ok := got.(protocol.StripeSeal)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if len(seal.Sum) != 2 || seal.Sum[0] != 0xde {
		t.Fatalf("seal not corrupted: % x", seal.Sum)
	}
	if len(orig.Sum) != 8 || orig.Sum[0] != 9 {
		t.Fatal("corruption mutated the caller's message")
	}
	_ = conn.Close()
}

func TestNilInjectorWrapsNothing(t *testing.T) {
	var in *Injector
	a, _ := transport.Pipe()
	if got := in.WrapConn(RoleDevice, a); got != a {
		t.Fatal("nil injector should return the conn unchanged")
	}
	dial := func() (transport.Conn, error) { return a, nil }
	if got := in.WrapDialer(RoleDevice, dial); fmt.Sprintf("%p", got) == "" {
		t.Fatal("unreachable")
	}
	in.AdvanceRound(5)
	if in.OpenConns() != 0 {
		t.Fatal("nil injector accounting not zero")
	}
	if in.Plan() != "chaos: disabled" {
		t.Fatalf("nil plan: %q", in.Plan())
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("shard:drop=0.05,jitter=200ms;shard:1:partition@3s+2s;shard:2:reset@r4;rate=1024,queue=8")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 2 {
		t.Fatalf("rules: %+v", spec.Rules)
	}
	r := spec.Rules[0]
	if r.Role != "shard" || r.Drop != 0.05 || r.Jitter != 200*time.Millisecond {
		t.Fatalf("rule 0: %+v", r)
	}
	if spec.Rules[1].Role != "" || spec.Rules[1].Rate != 1024 || spec.Rules[1].Queue != 8 {
		t.Fatalf("rule 1: %+v", spec.Rules[1])
	}
	if len(spec.Partitions) != 1 || spec.Partitions[0].Role != "shard:1" ||
		spec.Partitions[0].At != 3*time.Second || spec.Partitions[0].Dur != 2*time.Second {
		t.Fatalf("partitions: %+v", spec.Partitions)
	}
	if len(spec.Resets) != 1 || spec.Resets[0].Role != "shard:2" || spec.Resets[0].Round != 4 {
		t.Fatalf("resets: %+v", spec.Resets)
	}

	for _, bad := range []string{
		"drop=1.5", "drop=x", "bogus=1", "shard:partition@3s", "reset@rX", "delay=-1s", "justtext",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}

	// The effective profile folds matching rules with later overrides.
	eff := spec.effective(Role("shard:7"))
	if eff.Drop != 0.05 || eff.Rate != 1024 || eff.Queue != 8 {
		t.Fatalf("effective: %+v", eff)
	}
}

func TestMatchRole(t *testing.T) {
	cases := []struct {
		rule, link Role
		want       bool
	}{
		{"", "shard:1", true},
		{"shard", "shard", true},
		{"shard", "shard:1", true},
		{"shard:1", "shard:1", true},
		{"shard:1", "shard:2", false},
		{"shard", "device", false},
		{"device", "shard:1", false},
	}
	for _, c := range cases {
		if got := matchRole(c.rule, c.link); got != c.want {
			t.Errorf("matchRole(%q,%q) = %v, want %v", c.rule, c.link, got, c.want)
		}
	}
}

// TestDelayedSendHoldsItsLoan: a Delay rule queues a send past its caller's
// Send, after which the caller drops its reference to the loan behind the
// frame and the pool serves that size again; the queued send's own
// reference keeps the buffer out of the pool until it is written, so the
// TCP receiver reads the bytes intact (released buffers are poisoned).
func TestDelayedSendHoldsItsLoan(t *testing.T) {
	transport.PoisonReleasedForTest()
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := transport.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	in := New(1, Spec{Rules: []Rule{{Role: RoleShard, Delay: 20 * time.Millisecond}}}, nil)
	conn := in.WrapConn(RoleShard, raw)
	defer conn.Close()
	const n = 512 << 10
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i * 7)
	}
	for round := int64(1); round <= 4; round++ {
		loan := transport.NewLoan(n)
		copy(loan.Bytes(), want)
		if err := conn.Send(transport.Lend(protocol.StripeSeal{Round: round, Sum: loan.Bytes()}, loan)); err != nil {
			t.Fatal(err)
		}
		loan.Release()
		// What the pool hands out next must not be the queued frame's buffer.
		other := transport.NewLoan(n)
		copy(other.Bytes(), bytes.Repeat([]byte{0x55}, n))
		other.Release()
		msg, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seal := msg.(protocol.StripeSeal); seal.Round != round || !bytes.Equal(seal.Sum, want) {
			t.Fatalf("round %d: the delayed frame arrived damaged", round)
		}
		server.Release()
	}
}
