package flserver

import (
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
)

// TestEdgeSharesRotate: K = 128 over three edges is split exactly every
// round — Target, Admit and MinReports each sum to the plan's total — and
// the one short Target share (42) moves to another edge with every round, so
// no edge's devices are under-admitted round after round.
func TestEdgeSharesRotate(t *testing.T) {
	p := testPlan(t, 128, false)
	store := storage.NewMem()
	ts, err := tasks.New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Seed([]*plan.Plan{p}, simStart); err != nil {
		t.Fatal(err)
	}
	edges := make([]*stripeEdge, 3)
	params := CoordinatorParams{Population: "pop", Lock: actor.NewLockService(), Store: store, Tasks: ts, MinEdges: 3}
	for i := range edges {
		edges[i] = &stripeEdge{opened: make(chan *EdgeRoundConfig, 1)}
		params.Edges = append(params.Edges, edges[i])
	}
	sys := actor.NewSystem()
	defer sys.Shutdown()
	coord := sys.Spawn("coordinator/pop", newCoordinator(params))
	if err := coord.Send(msgTick{}); err != nil {
		t.Fatal(err)
	}
	short := make([]int, len(edges))
	for round := 0; round < len(edges); round++ {
		var target, admit, minReports int
		for i, edge := range edges {
			var cfg *EdgeRoundConfig
			select {
			case cfg = <-edge.opened:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: edge %d never opened", round, i)
			}
			target, admit, minReports = target+cfg.Target, admit+cfg.Admit, minReports+cfg.MinReports
			if cfg.Target == 42 {
				short[i]++
			}
			// An empty seal fails the round, and the Coordinator opens the next.
			if err := DeliverSeal(coord, edge, EdgeSeal{TaskID: p.ID, Round: cfg.Round}); err != nil {
				t.Fatal(err)
			}
		}
		srv := p.Server
		if target != srv.TargetDevices || admit != srv.SelectTarget() || minReports != srv.MinReports() {
			t.Fatalf("round %d: shares sum to %d/%d/%d, want %d/%d/%d", round, target, admit, minReports,
				srv.TargetDevices, srv.SelectTarget(), srv.MinReports())
		}
	}
	for i, n := range short {
		if n != 1 {
			t.Fatalf("edge %d had the short share in %d of 3 rounds (all edges: %v)", i, n, short)
		}
	}
}
