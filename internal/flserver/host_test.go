package flserver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/storage"
)

// TestHostRespawnsOverCurrentEdges: a host whose edges come and go (the
// sharded coordinator's links) respawns a crashed Coordinator over the edges
// it has at that moment — not the set it was first started with — under the
// same lock, with exactly one live owner; and the Ref it hands out keeps
// reaching whichever incarnation is current.
func TestHostRespawnsOverCurrentEdges(t *testing.T) {
	p := testPlan(t, 4, false)
	var mu sync.Mutex
	a, b := &stripeEdge{opened: make(chan *EdgeRoundConfig, 4)}, &stripeEdge{opened: make(chan *EdgeRoundConfig, 4)}
	live := []Edge{a}
	clock := newWatchedClock()
	ref, err := SuperviseCoordinator(clock, CoordinatorParams{
		Population: "pop", Store: storage.NewMem(), MinEdges: 2, TickEvery: 10 * time.Millisecond,
	}, []*plan.Plan{p}, func() []Edge {
		mu.Lock()
		defer mu.Unlock()
		return append([]Edge(nil), live...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	h := ref.(*popHost)

	waitOwner := func(not interface{}) {
		t.Helper()
		clock.until(t, "a live lock owner", func() bool {
			c := h.coordinator()
			return c != not && !c.Stopped() && h.p.Lock.Owner("pop") == c
		})
	}
	waitOwner(nil)
	first := h.coordinator()

	// A second link attaches after the first incarnation was spawned, then
	// that incarnation dies with its round open on both.
	mu.Lock()
	live = append(live, b)
	mu.Unlock()
	if err := EdgeUp(ref, b); err != nil {
		t.Fatal(err)
	}
	opened := func() bool { return len(a.opened) > 0 && len(b.opened) > 0 }
	clock.until(t, "a round open on both edges", opened)
	<-a.opened
	<-b.opened
	if err := ref.Send(msgCrash{}); err != nil {
		t.Fatal(err)
	}
	waitOwner(first)
	if !first.Stopped() {
		t.Fatal("two live Coordinators: the crashed incarnation still runs")
	}
	// MinEdges is 2: the successor can only open a round if it was spawned
	// over both current edges — nobody re-announces b.
	clock.until(t, "the respawned Coordinator to open a round over the host's current edges", opened)
	for _, e := range []*stripeEdge{a, b} {
		if cfg := <-e.opened; cfg.Round != 0 {
			t.Fatalf("respawned Coordinator opened round %d, want the uncommitted round 0", cfg.Round)
		}
	}
	if _, err := QueryCoordinatorStats(ref); err != nil {
		t.Fatalf("host Ref does not reach the new incarnation: %v", err)
	}
}
