package flserver

import (
	"errors"
	"fmt"
	"maps"
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

// heldStore is a storage.Mem that shows which checkpoint it holds as the
// task's head: the one its last PutCheckpoint was handed.
type heldStore struct {
	*storage.Mem
	head *checkpoint.Checkpoint
}

func (s *heldStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	s.head = c
	return s.Mem.PutCheckpoint(c)
}

// TestAdoptedSealDoesNotAliasLiveState: the Coordinator adopts the first
// seal's sum as the round accumulator and steps it in place: the vector the
// round folded into is the vector it commits, and nothing is allocated for
// it. Every other seal's sum goes back to its stock once added, and the
// stocks serve the next rounds, as in a deployment: each edge folds into
// stripes from its own stock; edge 0 hands its seal over as a local edge
// does, the others as shards do — marshaled, their vector put back by the
// edge, the wire form decoded into a vector of the coordinator's stock.
// Which edge seals first rotates, so the adopted vector comes from either
// kind of stock. After each seal is merged, what its sender still holds is
// poisoned — the update wire bytes, the marshaled sum, the drained stripes
// (through their API, which must refuse). Every committed checkpoint equals
// the closed form bit for bit. After each commit the model it superseded is
// back, zeroed, in the stock that lent the adopted vector, and no stock holds
// the live head — which the store and the next round hold. From round 2 on
// the rounds take only those vectors: the set of vectors in the stocks and
// the head is the same after every commit, and a giver that never took from
// a stock cannot add to it.
func TestAdoptedSealDoesNotAliasLiveState(t *testing.T) {
	const dim, stripesPerEdge, devicesPerStripe, weight, rounds = 37, 2, 3, 2.0, 4
	for _, edgesN := range []int{1, 3} {
		t.Run(fmt.Sprintf("edges-%d", edgesN), func(t *testing.T) {
			p := testPlan(t, edgesN*stripesPerEdge*devicesPerStripe, false)
			store := &heldStore{Mem: storage.NewMem()}
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
				MinEdges: edgesN, MaxRounds: rounds,
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

			edgeStocks := make([]fedavg.Spares, edgesN)
			var sums fedavg.Spares // the coordinator process's, for shard sums
			// Each stock's steady contents: an edge's stripes, and a shard
			// sum per edge but the first to seal.
			stocks, holds := []*fedavg.Spares{&sums}, []int{edgesN - 1}
			for e := range edgeStocks {
				stocks, holds = append(stocks, &edgeStocks[e]), append(holds, stripesPerEdge)
			}
			nan := math.NaN()
			poison := func(v []byte) {
				for i := range v {
					v[i] = 0xDB
				}
			}
			sameArray := func(a, b tensor.Vector) bool { return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1] }
			var pool map[*float64]bool // the stocks' vectors and the head, by array
			for r := 0; r < rounds; r++ {
				cfgs := make([]*EdgeRoundConfig, edgesN)
				for e, edge := range edges {
					select {
					case cfgs[e] = <-edge.opened:
					case <-time.After(10 * time.Second):
						t.Fatalf("round %d: edge %d never opened", r+1, e)
					}
					if cfgs[e].Dim != dim || cfgs[e].Round != int64(r) {
						t.Fatalf("edge %d opened round %d of dim %d, want round %d of %d", e, cfgs[e].Round, cfgs[e].Dim, r, dim)
					}
				}
				served := cfgs[0].Global.Params.Clone()

				// Dyadic values and weights: every partial sum is exact, so
				// the closed form does not depend on which seal arrives first.
				want := make(tensor.Vector, dim)
				var totalWeight float64
				var adopted tensor.Vector
				var lender *fedavg.Spares
				for i := range edges {
					e := (r + i) % edgesN
					stripes := make([]*fedavg.PartialAccumulator, stripesPerEdge)
					var wires [][]byte
					for s := range stripes {
						stripes[s] = edgeStocks[e].NewPartial(dim)
						for d := 0; d < devicesPerStripe; d++ {
							u := &checkpoint.Checkpoint{TaskName: p.ID, Weight: weight, Params: make(tensor.Vector, dim)}
							for j := range u.Params {
								u.Params[j] = 0.25 * float64((e+1)*(s+2)*(d+3)*(j%11)-40+r)
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
					seal, err := fedavg.SealStripes(stripes)
					if err != nil {
						t.Fatal(err)
					}
					if e > 0 {
						wire := fedavg.MarshalSum(seal.Sum)
						edgeStocks[e].Put(seal.Sum)
						if seal.Sum, err = sums.UnmarshalSum(wire); err != nil {
							t.Fatal(err)
						}
						seal.Spares = &sums
						wires = append(wires, wire)
					}
					if err := DeliverSeal(coord, edges[e], EdgeSeal{TaskID: p.ID, Round: cfgs[e].Round, Seal: seal}); err != nil {
						t.Fatal(err)
					}
					// The mailbox is FIFO: once this query is answered, onSeal
					// has run for the seal above.
					if _, err := QueryCoordinatorStats(coord); err != nil {
						t.Fatal(err)
					}
					for _, b := range wires {
						poison(b)
					}
					for s, st := range stripes {
						err := st.Accumulate(1, nil, func(sum tensor.Vector) error {
							for i := range sum {
								sum[i] = nan
							}
							return nil
						})
						if !errors.Is(err, fedavg.ErrPartialClosed) {
							t.Fatalf("edge %d stripe %d: fold into a sealed stripe: %v, want ErrPartialClosed", e, s, err)
						}
					}
					if i == 0 {
						adopted, lender = seal.Sum, seal.Spares // handed over: it becomes the checkpoint
					}
				}

				var out roundOutcome
				select {
				case out = <-outcomes:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d never settled", r+1)
				}
				if out.Committed == nil {
					t.Fatalf("round %d failed: %s", r+1, out.FailReason)
				}
				if &adopted[0] != &out.Committed.Params[0] {
					t.Fatalf("round %d: the adopted seal's vector is not the committed checkpoint's: the commit allocated", r+1)
				}
				if out.Committed.Round != int64(r+1) || out.Committed.Weight != totalWeight || out.Completed != int(totalWeight/weight) {
					t.Fatalf("committed round %d weight %v completed %d", out.Committed.Round, out.Committed.Weight, out.Completed)
				}
				inv := 1 / totalWeight
				for j, got := range out.Committed.Params {
					if w := served[j] + float64(want[j]*inv); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("round %d param %d: committed %v, closed form %v", r+1, j, got, w)
					}
				}
				head := out.Committed.Params
				if store.head != out.Committed {
					t.Fatalf("round %d: the store holds round %d, not the commit", r+1, store.head.Round)
				}

				// Empty every stock, check what it held, put it back, and try
				// to slip it a vector it never lent.
				next := map[*float64]bool{&head[0]: true}
				for k, stock := range stocks {
					held := make([]tensor.Vector, holds[k])
					for h := range held {
						held[h] = stock.Take(dim)
						if sameArray(held[h], head) {
							t.Fatalf("after round %d stock %d holds the live head", r+1, k)
						}
						if sameArray(held[h], cfgs[0].Global.Params) != (h == 0 && stock == lender) {
							t.Fatalf("after round %d stock %d vector %d: superseded model %v, want it on top of the adopted vector's stock only",
								r+1, k, h, sameArray(held[h], cfgs[0].Global.Params))
						}
						for j, x := range held[h] {
							if math.Float64bits(x) != 0 {
								t.Fatalf("after round %d stock %d vector %d holds [%d]=%v", r+1, k, h, j, x)
							}
						}
						next[&held[h][0]] = true
					}
					for _, v := range held {
						stock.Put(v)
					}
					stock.Put(make(tensor.Vector, dim))
				}
				if r > 0 && !maps.Equal(next, pool) {
					t.Fatalf("round %d took a vector from outside the stocks, or a stock kept one it never lent", r+1)
				}
				pool = next
			}
		})
	}
}
