package shard

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// loanPop is the population the loan tests' coordinator configures.
const loanPop = "loans"

// loansOut is how many transport loans this process has not returned.
func loansOut() float64 { return metrics.Default.Gauge("fl_net_buf_loans").Value() }

// waitFor polls cond on the wall clock for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// handCoordinator is the coordinator end of one shard's TCP link, driven by
// the test: it sends RoundConfigs by hand and hears the shard's aborts and
// seals.
type handCoordinator struct {
	t    *testing.T
	sp   *SelectorProc
	sess *remote.Session
	in   chan interface{}
	// devices is the shard's device listener.
	devices transport.Listener
	// served is closed once the session's Run has returned.
	served chan struct{}
}

func newHandCoordinator(t *testing.T) *handCoordinator {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	h := &handCoordinator{t: t, in: make(chan interface{}, 16), served: make(chan struct{})}
	h.sp = NewSelectorProc(SelectorConfig{Steering: pacing.New(time.Second), Seed: 1},
		func() (transport.Conn, error) { return transport.DialTCP(l.Addr()) })
	t.Cleanup(h.sp.Close)
	if h.devices, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.devices.Close() })
	go h.sp.Serve(h.devices)
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	h.sess = remote.NewSession(conn, remote.SessionOptions{Handle: func(msg interface{}) {
		switch m := msg.(type) {
		case protocol.StripeSeal:
			m.Sum = nil // leased until Handle returns
			h.in <- m
		case protocol.RoundAbort:
			h.in <- m
		}
	}})
	go func() { _ = h.sess.Run(); close(h.served) }()
	t.Cleanup(h.sess.Close)
	waitFor(t, "the shard's link", h.sp.peer.Alive)
	return h
}

// close closes the shard, which waits for its rounds and their goroutines,
// and waits for the link's end here to see it go: no loan is on its way back.
func (h *handCoordinator) close() {
	h.sp.Close()
	<-h.served
}

// send puts one message on the link to the shard.
func (h *handCoordinator) send(msg interface{}) {
	h.t.Helper()
	if err := h.sess.Send(msg); err != nil {
		h.t.Fatal(err)
	}
}

// next returns the shard's next abort or seal.
func (h *handCoordinator) next() interface{} {
	h.t.Helper()
	select {
	case msg := <-h.in:
		return msg
	case <-time.After(10 * time.Second):
		h.t.Fatal("timed out waiting for the shard")
		return nil
	}
}

// config is a one-device round of a float64 plan serving a dim-parameter
// checkpoint whose parameters start at salt.
func (h *handCoordinator) config(round int64, dim int, salt float64) protocol.RoundConfig {
	h.t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: loanPop + "/train", Population: loanPop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 1, OverSelectFactor: 1, MinReportFraction: 1,
		SelectionTimeout: time.Minute, ReportTimeout: time.Minute,
		ReportEncoding: checkpoint.EncodingFloat64,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	pb, _ := p.Marshal()
	params := make(tensor.Vector, dim)
	for i := range params {
		params[i] = salt + float64(i)
	}
	ck, err := (&checkpoint.Checkpoint{TaskName: p.ID, Round: round, Params: params}).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		h.t.Fatal(err)
	}
	return protocol.RoundConfig{Population: loanPop, TaskID: p.ID, Round: round, Target: 1, Admit: 1, MinReports: 1,
		Plan: pb, Checkpoint: ck}
}

// TestRefusedConfigsReleaseTheirFrames: every RoundConfig frame the shard
// holds and does not hand to a round — a bad checkpoint, a bad plan, a
// duplicate of the running round — goes back before the abort that refuses
// it, and the running round's once it is abandoned, by the time the shard's
// Close returns: the count of loans out returns to where it started.
func TestRefusedConfigsReleaseTheirFrames(t *testing.T) {
	transport.PoisonReleasedForTest()
	const dim = 8 << 10 // a 64 KB frame: leased
	h := newHandCoordinator(t)
	base := loansOut()
	refused := func(m protocol.RoundConfig, why string) {
		t.Helper()
		h.send(m)
		if a, ok := h.next().(protocol.RoundAbort); !ok || !strings.HasPrefix(a.Reason, why) {
			t.Fatalf("config answered %+v, want a RoundAbort for %q", a, why)
		}
	}
	badCheckpoint := h.config(1, dim, 1)
	badCheckpoint.Checkpoint = bytes.Repeat([]byte{0xEE}, len(badCheckpoint.Checkpoint))
	refused(badCheckpoint, "bad checkpoint")
	badPlan := h.config(1, dim, 1)
	badPlan.Plan = bytes.Repeat([]byte{0xEE}, 64)
	refused(badPlan, "bad plan")
	loans(t, base, "once the refused frames' aborts arrived")

	m := h.config(1, dim, 1)
	h.send(m)
	h.send(m)
	// The peer reader handles configs in order: once a later one is refused,
	// the duplicate has been handled too.
	refused(badPlan, "bad plan")
	if st, _ := h.sp.Stats(); st.RoundsOpened != 1 {
		t.Fatalf("%d rounds opened, want 1: the duplicate opened one", st.RoundsOpened)
	}
	loans(t, base+1, "the running round's alone")
	h.send(protocol.RoundAbort{Population: loanPop, TaskID: m.TaskID, Round: 1, Reason: "test over"})
	h.close()
	loans(t, base, "once the abandoned round's shard closed")
}

// loans fails the test unless want loans are out.
func loans(t *testing.T, want float64, what string) {
	t.Helper()
	if got := loansOut(); got != want {
		t.Fatalf("%v loans out %s, want %v", got, what, want)
	}
}

// TestSealJitterIsSeeded: two shards with one seed draw one retry-jitter
// sequence, so a partitioned shard's retry schedule on the virtual-time rig
// is the same run to run; another seed draws another.
func TestSealJitterIsSeeded(t *testing.T) {
	down := func() (transport.Conn, error) { return nil, errors.New("coordinator down") }
	draws := func(seed uint64) []time.Duration {
		p := NewSelectorProc(SelectorConfig{Seed: seed}, down)
		defer p.Close()
		var out []time.Duration
		for backoff := 25 * time.Millisecond; len(out) < 16; backoff = min(2*backoff, 200*time.Millisecond) {
			out = append(out, time.Duration(p.jitter.Int63n(int64(backoff))))
		}
		return out
	}
	a, b, c := draws(7), draws(7), draws(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v and %v under one seed", i, a[i], b[i])
		}
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 drew the same jitter")
	}
}
