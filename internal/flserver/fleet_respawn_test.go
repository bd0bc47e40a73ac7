package flserver

import (
	"fmt"
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

	clock := newWatchedClock()
	f := NewFleet(FleetConfig{Seed: 5, Clock: clock})
	defer f.Close()

	pops := []string{"pop-a", "pop-b"}
	for _, pop := range pops {
		if err := f.Register(PopulationSpec{
			Population: pop, Plans: []*plan.Plan{longPlan(pop)}, Store: storage.NewMem(),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// owned reports whether pop's registry coordinator is live, is not
	// old, and owns the population lock.
	owned := func(pop string, old actor.Ref) bool {
		coord, ok := f.coordinator(pop)
		return ok && coord != nil && coord != old && !coord.Stopped() && f.lockOwner(pop) == coord
	}
	clock.until(t, "every population to own its lock", func() bool { return owned("pop-a", nil) && owned("pop-b", nil) })

	for round := 0; round < 5; round++ {
		// Crash both populations' Coordinators concurrently: their watchers
		// race respawns against each other on the one shared lock service.
		olds := make(map[string]actor.Ref, len(pops))
		for _, pop := range pops {
			olds[pop], _ = f.coordinator(pop)
			_ = olds[pop].Send(msgCrash{})
		}
		clock.until(t, "every population to re-acquire its lock", func() bool {
			return owned("pop-a", olds["pop-a"]) && owned("pop-b", olds["pop-b"])
		})

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
			clock.until(t, fmt.Sprintf("round %d: the rival coordinator for %s to stop (two live Coordinators for one population)", round, pop), rival.Stopped)
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
