package flserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/storage"
)

// TestCoordinatorRespawnRaceSharedLock is the supervision invariant under
// a SHARED lock service (Sec. 4.4): several populations' watchers respawn
// their crashed Coordinators concurrently, and extra contenders race every
// respawn — yet no population ever ends up with two live Coordinators,
// because only the lock owner survives its first tick. Run under -race
// (CI covers internal/flserver with -race).
func TestCoordinatorRespawnRaceSharedLock(t *testing.T) {
	longPlan := func(pop string) *plan.Plan {
		p, err := plan.Generate(plan.Config{
			TaskID: pop + "/train", Population: pop,
			Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
			StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
			TargetDevices: 2, MinReportFraction: 0.7,
			// Long windows: no round churn while coordinators crash/respawn.
			SelectionTimeout: 5 * time.Minute, ReportTimeout: 5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	f := NewFleet(FleetConfig{Seed: 5})
	defer f.Close()

	pops := []string{"pop-a", "pop-b"}
	for _, pop := range pops {
		if err := f.Register(PopulationSpec{
			Population: pop, Plans: []*plan.Plan{longPlan(pop)}, Store: storage.NewMem(),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// waitOwned blocks until pop's registry coordinator is live and owns
	// the population lock.
	waitOwned := func(pop string, not actor.Ref) actor.Ref {
		var coord actor.Ref
		waitWithin(t, 15*time.Second, "population "+pop+" to re-acquire its lock", func() bool {
			var ok bool
			coord, ok = f.coordinator(pop)
			return ok && coord != nil && coord != not && !coord.Stopped() && f.lockOwner(pop) == coord
		})
		return coord
	}
	for _, pop := range pops {
		waitOwned(pop, nil)
	}

	for round := 0; round < 5; round++ {
		// Crash both populations' Coordinators concurrently: their watchers
		// race respawns against each other on the one shared lock service.
		var wg sync.WaitGroup
		for _, pop := range pops {
			coord, _ := f.coordinator(pop)
			wg.Add(1)
			go func(pop string, old actor.Ref) {
				defer wg.Done()
				_ = old.Send(msgCrash{})
				waitOwned(pop, old)
			}(pop, coord)
		}
		wg.Wait()

		// Now race a rival "second respawn" per population against the live
		// owner: a duplicated watcher decision must lose the lock Acquire on
		// its first tick and stop itself — never a second live Coordinator.
		rivals := make(map[string]actor.Ref, len(pops))
		for _, pop := range pops {
			h, err := f.host(pop)
			if err != nil {
				t.Fatal(err)
			}
			params := h.p
			params.Edges = h.edges()
			params.MaxRounds, params.Done = 0, nil
			rival := f.sys.Spawn("rival-coordinator/"+pop, newCoordinator(params))
			rivals[pop] = rival
			if err := rival.Send(msgTick{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, pop := range pops {
			rival := rivals[pop]
			waitWithin(t, 15*time.Second, fmt.Sprintf("round %d: the rival coordinator for %s to stop (two live Coordinators for one population)", round, pop), rival.Stopped)
			coord, _ := f.coordinator(pop)
			if owner := f.lockOwner(pop); owner != coord {
				t.Fatalf("round %d: lock owner for %s is %v, want the registry coordinator", round, pop, owner)
			}
			if coord.Stopped() {
				t.Fatalf("round %d: registry coordinator for %s died", round, pop)
			}
		}
	}

	// The surviving Coordinators still answer stats — they are the single
	// live owners, not zombies.
	for _, pop := range pops {
		if _, err := f.PopulationStats(pop); err != nil {
			t.Fatalf("population %s unresponsive after respawn storm: %v", pop, err)
		}
	}
}
