package shard_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// freshTakes counts the vectors every fedavg.Spares in the process has
// allocated rather than recycled: the memory profile's allocations under
// (*Spares).Take. The profile publishes an allocation after the collections
// that follow it, hence the two. At a profile rate far below a model's size
// every model-sized allocation is sampled.
func freshTakes() int64 {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/2)
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if f.Function == "repro/internal/fedavg.(*Spares).Take" {
				total += r.AllocObjects
				break
			}
		}
	}
	return total
}

// lineageStore checks every commit against its closed form as it is put —
// the last commit plus the devices' weighted mean delta, bit for bit — and
// counts the fresh vectors taken up to the commit of round mark: the next
// round has not opened yet.
type lineageStore struct {
	*storage.Mem
	delta  tensor.Vector // the weighted sum of one round's reports
	weight float64
	mark   int64

	mu       sync.Mutex
	prev     tensor.Vector // the head's Params as committed, a copy
	commits  int64
	atMark   int64
	mismatch error
}

func (s *lineageStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mismatch == nil {
		inv := 1 / s.weight
		for j, got := range c.Params {
			if want := s.prev[j] + float64(s.delta[j]*inv); math.Float64bits(got) != math.Float64bits(want) {
				s.mismatch = fmt.Errorf("round %d param %d: committed %v, closed form %v", c.Round, j, got, want)
				break
			}
		}
		if c.Weight != s.weight {
			s.mismatch = fmt.Errorf("round %d: committed weight %v, want every report's %v", c.Round, c.Weight, s.weight)
		}
	}
	s.prev = c.Params.Clone()
	if s.commits++; c.Round == s.mark {
		s.atMark = freshTakes()
	}
	return s.Mem.PutCheckpoint(c)
}

func (s *lineageStore) done() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits
}

// TestSteadyRoundsTakeNoFreshVector: once a commit supersedes a model, the
// model's vector goes back to the stock the new model's vector came from — a
// local edge's, or the coordinator process's shard-sum stock — so from round
// 3 on no round of a dim-65 536 model takes a fresh vector from any stock,
// in process over MemNetwork and sharded over three selector shards, while
// every commit equals its closed form bit for bit. Without the retire each
// round takes one.
func TestSteadyRoundsTakeNoFreshVector(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 4096
	const dim, k, rounds = 1 << 16, 6, 6
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			p, err := plan.Generate(plan.Config{
				TaskID: "pop-recycle/task", Population: "pop-recycle",
				Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
				StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
				TargetDevices: k, OverSelectFactor: 1.0,
				SelectionTimeout: time.Minute, ReportTimeout: time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			store := &lineageStore{Mem: storage.NewMem(), delta: make(tensor.Vector, dim), mark: 2}
			initial := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}
			for j := range initial.Params {
				initial.Params[j] = 0.5 * float64(j%13-6)
			}
			store.prev = initial.Params.Clone()
			if err := store.Mem.PutCheckpoint(initial); err != nil {
				t.Fatal(err)
			}
			// Dyadic updates and small integer weights: every fold order
			// gives the same sum, so the closed form is exact.
			wires := make([][]byte, k)
			for i := range wires {
				u := &checkpoint.Checkpoint{TaskName: p.ID, Weight: float64(1 + i%3), Params: make(tensor.Vector, dim)}
				for j := range u.Params {
					u.Params[j] = float64(i+1) * (float64(j%7)*0.25 - 0.5)
				}
				if wires[i], err = u.Marshal(checkpoint.EncodingFloat64); err != nil {
					t.Fatal(err)
				}
				m, err := checkpoint.ParseMeta(wires[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := m.AccumulateParams(wires[i], store.delta); err != nil {
					t.Fatal(err)
				}
				store.weight += m.Weight
			}

			start := freshTakes()
			rig, err := chaos.NewRig(chaos.RigConfig{Plan: p, Store: store, PopulationEstimate: k, MaxRounds: rounds, Shards: shards, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer rig.Close()
			for i := range k {
				rig.Device(i, time.Second+time.Duration(i)*time.Millisecond, func(dial func() (transport.Conn, error)) time.Duration {
					conn, err := dial()
					if err != nil {
						return rig.Steering.MinWait
					}
					id := fmt.Sprintf("stub-%d", i)
					c := &device.Client{ID: id, Population: p.Population, Runtime: device.NewRuntime(id, 3, nil, 1), Clock: rig.Clock}
					s, err := c.Checkin(conn)
					switch {
					case err != nil:
						return rig.Steering.MinWait
					case !s.Accepted:
						return max(rig.Steering.MinWait, s.RetryAfter)
					}
					_, _ = s.Report(wires[i], nil)
					return rig.Steering.MinWait
				})
			}
			if err := rig.Clock.Run(time.Hour, func() bool { return store.done() >= rounds }); err != nil {
				t.Fatalf("%d of %d rounds committed: %v", store.done(), rounds, err)
			}
			if err := rig.StopDevices(time.Hour); err != nil {
				t.Fatal(err)
			}
			store.mu.Lock()
			defer store.mu.Unlock()
			if store.mismatch != nil {
				t.Fatal(store.mismatch)
			}
			if store.atMark <= start {
				t.Fatal("the memory profile shows no vector taken for rounds 1 and 2: it cannot see a fresh one either")
			}
			if fresh := freshTakes() - store.atMark; fresh != 0 {
				t.Fatalf("rounds %d–%d took %d fresh vectors from the stocks, want 0: a superseded model was not recycled",
					store.mark+1, rounds, fresh)
			}
			if c, err := store.LatestCheckpoint(p.ID); err != nil || c.Round != rounds || !slices.Equal(c.Params, store.prev) {
				t.Fatalf("the store's head is not the last commit: %v", err)
			}
		})
	}
}
