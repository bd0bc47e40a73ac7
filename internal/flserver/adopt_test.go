package flserver

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// stripeEdge is an Edge whose round is a set of real accumulator stripes
// the test folds wire bytes into and seals by hand, so the test holds every
// buffer the Coordinator's adopted accumulator could still alias.
type stripeEdge struct{ opened chan *EdgeRoundConfig }

func (e *stripeEdge) Open(cfg *EdgeRoundConfig, _ actor.Ref) error { e.opened <- cfg; return nil }
func (e *stripeEdge) Finalize(string, int64) error                 { return nil }
func (e *stripeEdge) Abort(string, int64, string)                  {}
func (e *stripeEdge) ProbeRates(actor.Ref)                         {}

// TestAdoptedSealDoesNotAliasLiveState: the Coordinator adopts the first
// seal's sum as the round accumulator and steps it in place: the vector the
// round folded into is the vector it commits, and nothing is allocated for
// it. After each seal is merged, everything its sender still holds is
// poisoned — the update wire bytes, the drained stripes (through their API,
// which must refuse), the sum vectors of seals that were added rather than
// adopted — and after the commit so is the served global. The committed
// checkpoint still equals the closed form bit for bit, in the
// one-local-edge shape and with three edges.
func TestAdoptedSealDoesNotAliasLiveState(t *testing.T) {
	const dim, stripesPerEdge, devicesPerStripe, weight = 37, 2, 3, 2.0
	for _, edgesN := range []int{1, 3} {
		t.Run(fmt.Sprintf("edges-%d", edgesN), func(t *testing.T) {
			p := testPlan(t, edgesN*stripesPerEdge*devicesPerStripe, false)
			store := storage.NewMem()
			global := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}
			for j := range global.Params {
				global.Params[j] = 0.125 * float64(j-9)
			}
			if err := store.PutCheckpoint(global); err != nil {
				t.Fatal(err)
			}
			ts, err := tasks.New("pop", store)
			if err != nil {
				t.Fatal(err)
			}
			if err := ts.Seed([]*plan.Plan{p}, simStart); err != nil {
				t.Fatal(err)
			}
			edges := make([]*stripeEdge, edgesN)
			params := CoordinatorParams{
				Population: "pop", Lock: actor.NewLockService(), Store: store, Tasks: ts,
				MinEdges: edgesN, MaxRounds: 1,
			}
			for i := range edges {
				edges[i] = &stripeEdge{opened: make(chan *EdgeRoundConfig, 1)}
				params.Edges = append(params.Edges, edges[i])
			}
			outcomes := make(chan roundOutcome, 1)
			params.onOutcome = func(out roundOutcome) { outcomes <- out }
			sys := actor.NewSystem()
			defer sys.Shutdown()
			coord := sys.Spawn("coordinator/pop", newCoordinator(params))
			if err := coord.Send(msgTick{}); err != nil {
				t.Fatal(err)
			}

			// Dyadic values and weights: every partial sum is exact, so the
			// closed form does not depend on which seal arrives first.
			want := make(tensor.Vector, dim)
			var totalWeight float64
			nan := math.NaN()
			poison := func(v tensor.Vector) {
				for i := range v {
					v[i] = nan
				}
			}
			var adopted tensor.Vector
			var cfg *EdgeRoundConfig
			for e, edge := range edges {
				select {
				case cfg = <-edge.opened:
				case <-time.After(10 * time.Second):
					t.Fatalf("edge %d never opened", e)
				}
				if cfg.Dim != dim {
					t.Fatalf("round dim %d, want %d", cfg.Dim, dim)
				}
				stripes := make([]*fedavg.PartialAccumulator, stripesPerEdge)
				var wires [][]byte
				for s := range stripes {
					stripes[s] = fedavg.NewPartial(dim)
					for d := 0; d < devicesPerStripe; d++ {
						u := &checkpoint.Checkpoint{TaskName: p.ID, Weight: weight, Params: make(tensor.Vector, dim)}
						for j := range u.Params {
							u.Params[j] = 0.25 * float64((e+1)*(s+2)*(d+3)*(j%11)-40)
							want[j] += u.Params[j]
						}
						totalWeight += weight
						b, err := u.Marshal(checkpoint.EncodingFloat64)
						if err != nil {
							t.Fatal(err)
						}
						m, err := checkpoint.ParseMeta(b)
						if err != nil {
							t.Fatal(err)
						}
						if err := stripes[s].Accumulate(m.Weight, nil, func(sum tensor.Vector) error {
							return m.AccumulateParams(b, sum)
						}); err != nil {
							t.Fatal(err)
						}
						wires = append(wires, b)
					}
				}
				sealed, err := fedavg.SealStripes(stripes)
				if err != nil {
					t.Fatal(err)
				}
				if err := DeliverSeal(coord, edge, EdgeSeal{TaskID: p.ID, Round: cfg.Round, Seal: sealed}); err != nil {
					t.Fatal(err)
				}
				// The mailbox is FIFO: once this query is answered, onSeal
				// has run for the seal above.
				if _, err := QueryCoordinatorStats(coord); err != nil {
					t.Fatal(err)
				}
				for _, b := range wires {
					for i := range b {
						b[i] = 0xDB
					}
				}
				for s, st := range stripes {
					err := st.Accumulate(1, nil, func(sum tensor.Vector) error { poison(sum); return nil })
					if !errors.Is(err, fedavg.ErrPartialClosed) {
						t.Fatalf("edge %d stripe %d: fold into a sealed stripe: %v, want ErrPartialClosed", e, s, err)
					}
				}
				if e == 0 {
					adopted = sealed.Sum // handed over: it becomes the checkpoint, the sender must never touch it
				} else {
					poison(sealed.Sum)
				}
			}

			var out roundOutcome
			select {
			case out = <-outcomes:
			case <-time.After(10 * time.Second):
				t.Fatal("round never settled")
			}
			if out.Committed == nil {
				t.Fatalf("round failed: %s", out.FailReason)
			}
			served := global.Params.Clone()
			if &adopted[0] != &out.Committed.Params[0] {
				t.Fatal("the adopted seal's vector is not the committed checkpoint's: the commit allocated")
			}
			poison(cfg.Global.Params)
			if out.Committed.Round != 1 || out.Committed.Weight != totalWeight || out.Completed != int(totalWeight/weight) {
				t.Fatalf("committed round %d weight %v completed %d", out.Committed.Round, out.Committed.Weight, out.Completed)
			}
			inv := 1 / totalWeight
			for j, got := range out.Committed.Params {
				if w := served[j] + float64(want[j]*inv); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("param %d: committed %v, closed form %v", j, got, w)
				}
			}
		})
	}
}
