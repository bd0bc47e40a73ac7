package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The stub devices of the shard tests report fixed payloads over a zero
// global of engineDim parameters, so a committed round has a closed form.
// The composition matrix itself — every plan shape on every topology — is
// TestEngineEquivalenceMatrix (matrix_test.go).
const (
	enginePop  = "pop-engine"
	engineTask = enginePop + "/task"
	engineDim  = 6144
)

// stubUpdate is device i's fixed report: a weighted delta whose weighted
// mean over any device set is easy to recompute.
func stubUpdate(i int, scale float64) *checkpoint.Checkpoint {
	u := &checkpoint.Checkpoint{TaskName: engineTask, Weight: float64(1 + i%3), Params: make(tensor.Vector, engineDim)}
	for j := range u.Params {
		u.Params[j] = scale * float64(i+1) * (float64(j%7)*0.25 - 0.5)
	}
	return u
}

// configured checks device id in on clock (retrying while no round admits
// it) until a round configures it or stop closes, and returns the device's
// session, held between configuration and report: the stubs report fixed
// payloads instead of training.
func configured(clock actor.Clock, dial func() (transport.Conn, error), id string, stop <-chan struct{}) *device.Session {
	c := &device.Client{ID: id, Population: enginePop, Runtime: device.NewRuntime(id, 3, nil, 1), Clock: clock}
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		conn, err := dial()
		if err != nil {
			return nil
		}
		if s, err := c.Checkin(conn); err == nil && s.Accepted {
			return s
		}
		actor.Sleep(clock, 2*time.Millisecond, nil)
	}
}

// TestFailedRoundReticksAtOnce: a round that settles below its minimum must
// chain the next round immediately, as a committed one does — not idle
// until the scheduling tick. With no devices and a 100ms report window
// every round fails; at a 30s TickEvery only the immediate re-tick can put
// several RoundConfigs on the wire within a few seconds.
func TestFailedRoundReticksAtOnce(t *testing.T) {
	p, err := plan.Generate(plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 2, SelectionTimeout: time.Minute, ReportTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const tickEvery = 30 * time.Second
	clock := newClock()
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: enginePop, Plans: []*plan.Plan{p}, Store: storage.NewMem(),
		Steering: pacing.New(time.Second), MinShards: 1, TickEvery: tickEvery, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	net := transport.NewMemNetwork(clock)
	l, err := net.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clock.Go(func() { coord.Serve(l) })

	rec := newConfigRecorder()
	sp := NewSelectorProc(SelectorConfig{Shard: 0, Steering: pacing.New(time.Second), Peer: remote.Options{Clock: clock}},
		func() (transport.Conn, error) {
			c, err := net.Dial("coord")
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, shard: 0, rec: rec}, nil
		})
	defer sp.Close()

	if err := clock.Run(tickEvery/3, func() bool { return rec.snapshot()[[2]int64{0, 0}] >= 4 }); err != nil {
		st, _ := coord.Stats()
		t.Fatalf("%d RoundConfigs in %v (stats %+v): failed rounds wait for the %v tick: %v",
			rec.snapshot()[[2]int64{0, 0}], tickEvery/3, st, tickEvery, err)
	}
	if st, err := coord.Stats(); err != nil || st.RoundsFailed < 3 || st.RoundsCompleted != 0 {
		t.Fatalf("stats after the failed rounds: %+v, %v", st, err)
	}
}

// traceMem is a storage.Mem that keeps the round traces it is handed (the
// optional metrics.TraceStore half of a store), for tests that assert on them.
type traceMem struct {
	*storage.Mem
	mu     sync.Mutex
	traces []metrics.RoundTrace
}

func newTraceMem() *traceMem { return &traceMem{Mem: storage.NewMem()} }

// PutRoundTrace implements metrics.TraceStore.
func (s *traceMem) PutRoundTrace(t metrics.RoundTrace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, t)
	return nil
}

// RoundTraces returns every stored round trace in arrival order.
func (s *traceMem) RoundTraces() []metrics.RoundTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]metrics.RoundTrace(nil), s.traces...)
}
