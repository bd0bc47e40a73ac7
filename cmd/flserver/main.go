// Command flserver runs the FL fleet gateway over TCP: ONE process whose
// shared Selector layer serves every named FL population concurrently.
// Simulated devices connect with cmd/fldevices.
//
//	flserver -addr :8750 -population gboard -rounds 10 -target 20
//	flserver -addr :8750 -population gboard,search,photos -rounds 5
//	flserver -addr :8750 -population gboard -population search
//
// -population may be repeated and/or comma-separated; every population is
// served behind the same address and check-ins are routed by the
// population named in each device's CheckinRequest. The fleet commits each
// population's round checkpoints to -storage (a per-population
// subdirectory; in-memory when empty) and prints per-population round
// progress until every population reaches -rounds.
//
// -tasks-dir turns the process into an operable service (Sec. 7
// model-engineer workflow): the directory is watched for *.json task op
// files, each processed exactly once, so new train/eval plans can be
// dropped onto the LIVE process — and running tasks paused, resumed, or
// retired — without restarting it:
//
//	flserver -addr :8750 -population gboard -rounds 0 -tasks-dir /etc/fl-tasks
//	cat > /etc/fl-tasks/10-eval.json <<'EOF'
//	{"population": "gboard",
//	 "task": {"TaskID": "gboard/eval", "Population": "gboard", "Type": 2,
//	          "Model": {"Kind": 2, "Features": 8, "Hidden": 16, "Classes": 4, "Seed": 1},
//	          "StoreName": "examples", "TargetDevices": 10},
//	 "policy": {"EvalEvery": 2, "EvalOf": "gboard/train"}}
//	EOF
//
// -shard-listen switches the process into COORDINATOR MODE for a sharded
// deployment (DESIGN.md process-topology section): instead of terminating
// device connections itself, it listens for flselector shard links, fans
// each round's RoundConfig out to the shards, merges their sealed stripes,
// and commits the round — the only process that writes checkpoints:
//
//	flserver -shard-listen :8760 -population gboard -rounds 10 -min-shards 3
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	repro "repro"

	"repro/internal/cliutil"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// taskProgress converts task lifecycle stats into the shared progress rows.
func taskProgress(ts []tasks.Stats) []metrics.TaskProgress {
	out := make([]metrics.TaskProgress, len(ts))
	for i, t := range ts {
		out[i] = metrics.TaskProgress{
			ID: t.ID, Type: fmt.Sprint(t.Type), State: fmt.Sprint(t.State),
			RoundsCommitted: t.RoundsCommitted, RoundsFailed: t.RoundsFailed,
			Devices: t.Devices, Note: t.Note,
		}
	}
	return out
}

// coordProgress snapshots coordinator-mode progress as the shared
// per-population progress block — the one renderer behind the status
// ticker, the finish line, and /dashboard.
func coordProgress(population string, coord *shard.CoordinatorProc) []metrics.PopulationProgress {
	st, err := coord.Stats()
	if err != nil {
		return nil
	}
	var tasks []metrics.TaskProgress
	if ts, err := coord.TaskStats(); err == nil {
		tasks = taskProgress(ts)
	}
	return []metrics.PopulationProgress{{
		Name:      population,
		Round:     st.CurrentRound,
		Completed: st.RoundsCompleted,
		Failed:    st.RoundsFailed,

		Sharded:       true,
		Shards:        st.Shards,
		Seals:         st.SealsReceived,
		BytesUpstream: st.BytesUpstream,

		Tasks: tasks,
	}}
}

// fleetProgress snapshots every registered population of the in-process
// fleet as the shared progress blocks.
func fleetProgress(fleet *repro.Fleet, names []string) []metrics.PopulationProgress {
	out := make([]metrics.PopulationProgress, 0, len(names))
	for _, name := range names {
		st, err := fleet.PopulationStats(name)
		if err != nil {
			continue
		}
		p := metrics.PopulationProgress{
			Name:      name,
			Round:     st.Coordinator.CurrentRound,
			Completed: st.Coordinator.RoundsCompleted,
			Failed:    st.Coordinator.RoundsFailed,

			Accepted: st.Selector.Accepted,
			Rejected: st.Selector.Rejected,
			Pooled:   int64(st.Selector.Pooled),
		}
		if ts, err := fleet.TaskStats(name); err == nil {
			p.Tasks = taskProgress(ts)
		}
		out = append(out, p)
	}
	return out
}

// logProgress prints progress blocks through the standard logger, one log
// line per rendered line (so every line keeps its timestamp prefix).
func logProgress(pops []metrics.PopulationProgress) {
	for _, p := range pops {
		for _, line := range strings.Split(p.String(), "\n") {
			log.Print(line)
		}
	}
}

// serveObs starts the observability HTTP surface when -obs-listen is set
// (empty addr = no-op) and logs where it landed.
func serveObs(addr, title string, progress func() []metrics.PopulationProgress) *metrics.Server {
	srv, err := metrics.Default.Serve(addr, metrics.WithTitle(title), metrics.WithProgress(progress))
	if err != nil {
		log.Fatal(err)
	}
	if srv != nil {
		log.Printf("observability surface on http://%s (/metrics, /debug/vars, /debug/pprof, /dashboard)", srv.Addr())
	}
	return srv
}

// runCoordinator is flserver's coordinator mode: one population, round
// state and the lock service owned here, device traffic terminated by the
// flselector shards that dial in.
func runCoordinator(shardListen, obsListen, population string, p *repro.Plan, store storage.Store, rounds, minShards int, sealGrace, tickEvery time.Duration) {
	coord, err := shard.NewCoordinatorProc(shard.CoordinatorConfig{
		Population: population,
		Plans:      []*repro.Plan{p},
		Store:      store,
		Steering:   pacing.New(time.Minute),
		MaxRounds:  rounds,
		MinShards:  minShards,
		SealGrace:  sealGrace,
		TickEvery:  tickEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	l, err := transport.ListenTCP(shardListen)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	log.Printf("FL coordinator for %s listening for shards on %s (rounds=%d, min-shards=%d)",
		population, l.Addr(), rounds, minShards)
	go coord.Serve(l)

	if srv := serveObs(obsListen, "fl coordinator: "+population,
		func() []metrics.PopulationProgress { return coordProgress(population, coord) }); srv != nil {
		defer srv.Close()
	}

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-coord.Done():
			st, err := coord.Stats()
			if err != nil {
				log.Fatal(err)
			}
			ckpt, err := store.LatestCheckpoint(p.ID)
			if err != nil {
				log.Fatalf("%s finished but no checkpoint: %v", population, err)
			}
			fmt.Printf("%s done: %d rounds committed (%d failed), final round %d, |params|=%d, %d seals / %d bytes upstream\n",
				population, st.RoundsCompleted, st.RoundsFailed, ckpt.Round, len(ckpt.Params),
				st.SealsReceived, st.BytesUpstream)
			return
		case <-ticker.C:
			pops := coordProgress(population, coord)
			if len(pops) == 0 {
				log.Printf("%s: stats unavailable", population)
				continue
			}
			logProgress(pops)
		}
	}
}

// watchTasksDir polls dir for operator task op files and applies each to
// the live fleet exactly once, logging every outcome. A broken file is
// consumed and reported rather than retried, so a typo cannot wedge the
// watcher.
func watchTasksDir(fleet *repro.Fleet, dir string) {
	scanner := tasks.NewDirScanner(dir)
	log.Printf("watching %s for task op files", dir)
	for {
		ops, err := scanner.Scan()
		if err != nil {
			log.Printf("tasks-dir: %v", err)
			time.Sleep(5 * time.Second)
			continue
		}
		for _, pending := range ops {
			if pending.Err != nil {
				log.Printf("tasks-dir %s: %v", pending.File, pending.Err)
				continue
			}
			op := pending.Op
			var err error
			switch op.Action {
			case tasks.OpSubmit:
				var p *repro.Plan
				if p, err = repro.GeneratePlan(*op.Task); err == nil {
					err = fleet.SubmitTask(op.Population, p, op.Policy)
				}
			case tasks.OpPause:
				err = fleet.PauseTask(op.Population, op.TaskID)
			case tasks.OpResume:
				err = fleet.ResumeTask(op.Population, op.TaskID)
			case tasks.OpRetire:
				err = fleet.RetireTask(op.Population, op.TaskID)
			}
			if err != nil {
				log.Printf("tasks-dir %s: %s %s: %v", pending.File, op.Action, op.Population, err)
				continue
			}
			id := op.TaskID
			if op.Task != nil {
				id = op.Task.TaskID
			}
			log.Printf("tasks-dir %s: %s %s/%s applied", pending.File, op.Action, op.Population, id)
		}
		time.Sleep(2 * time.Second)
	}
}

func main() {
	var populations cliutil.ListFlag
	addr := flag.String("addr", ":8750", "TCP listen address")
	flag.Var(&populations, "population", "FL population name(s); repeatable, comma-separated (default gboard)")
	target := flag.Int("target", 20, "devices per round (K) per population")
	rounds := flag.Int("rounds", 10, "rounds to run per population before exiting (0 = forever)")
	storageDir := flag.String("storage", "", "checkpoint directory, one subdirectory per population (empty = in-memory)")
	selTimeout := flag.Duration("selection-timeout", 30*time.Second, "selection window")
	repTimeout := flag.Duration("report-timeout", time.Minute, "reporting window")
	tasksDir := flag.String("tasks-dir", "", "directory watched for task op files (JSON); submit/pause/resume/retire tasks on the live process")
	shardListen := flag.String("shard-listen", "", "coordinator mode: listen for flselector shard links on this address instead of serving devices")
	minShards := flag.Int("min-shards", 1, "coordinator mode: shards required before a round starts")
	sealGrace := flag.Duration("seal-grace", 0, "coordinator mode: wait for straggler seals after the report deadline before settling a partial round (0 = default 2s)")
	tickEvery := flag.Duration("tick-every", 0, "coordinator mode: round scheduling tick (0 = default 250ms)")
	obsListen := flag.String("obs-listen", "", "serve /metrics, /debug/vars, /debug/pprof and /dashboard on this address (empty = off)")
	clip := flag.Float64("clip", 0, "norm-bound robust aggregation: clip each update's per-example-average L2 norm at this bound (0 = plain weighted mean)")
	flag.Parse()
	if len(populations) == 0 {
		populations = cliutil.ListFlag{"gboard"}
	}

	if *shardListen != "" {
		if len(populations) != 1 {
			log.Fatal("coordinator mode serves exactly one -population")
		}
		name := populations[0]
		p, err := repro.GeneratePlan(plan.Config{
			TaskID:           name + "/train",
			Population:       name,
			Model:            repro.ModelSpec{Kind: repro.KindMLP, Features: 8, Hidden: 16, Classes: 4, Seed: 1},
			StoreName:        "examples",
			BatchSize:        10,
			Epochs:           1,
			LearningRate:     0.05,
			TargetDevices:    *target,
			SelectionTimeout: *selTimeout,
			ReportTimeout:    *repTimeout,
			Robust:           robustPolicy(*clip),
		})
		if err != nil {
			log.Fatal(err)
		}
		var store storage.Store
		if *storageDir == "" {
			store = storage.NewMem()
		} else {
			if store, err = storage.NewFile(filepath.Join(*storageDir, name)); err != nil {
				log.Fatal(err)
			}
		}
		runCoordinator(*shardListen, *obsListen, name, p, store, *rounds, *minShards, *sealGrace, *tickEvery)
		return
	}

	fleet := repro.NewFleet(repro.FleetConfig{})
	defer fleet.Close()

	type popState struct {
		name  string
		plan  *repro.Plan
		store storage.Store
	}
	states := make([]popState, 0, len(populations))
	for _, name := range populations {
		p, err := repro.GeneratePlan(plan.Config{
			TaskID:           name + "/train",
			Population:       name,
			Model:            repro.ModelSpec{Kind: repro.KindMLP, Features: 8, Hidden: 16, Classes: 4, Seed: 1},
			StoreName:        "examples",
			BatchSize:        10,
			Epochs:           1,
			LearningRate:     0.05,
			TargetDevices:    *target,
			SelectionTimeout: *selTimeout,
			ReportTimeout:    *repTimeout,
			Robust:           robustPolicy(*clip),
		})
		if err != nil {
			log.Fatal(err)
		}
		var store storage.Store
		if *storageDir == "" {
			store = storage.NewMem()
		} else {
			store, err = storage.NewFile(filepath.Join(*storageDir, name))
			if err != nil {
				log.Fatal(err)
			}
		}
		if err := fleet.Register(repro.PopulationSpec{
			Population: name,
			Plans:      []*repro.Plan{p},
			Store:      store,
			Steering:   repro.NewPaceSteering(*selTimeout + *repTimeout),
			MaxRounds:  *rounds,
		}); err != nil {
			log.Fatal(err)
		}
		states = append(states, popState{name: name, plan: p, store: store})
	}

	l, err := repro.ListenTCP(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	log.Printf("FL fleet gateway for %d population(s) %v listening on %s (K=%d, rounds=%d)",
		len(states), populations.String(), l.Addr(), *target, *rounds)

	go fleet.Serve(l)

	if srv := serveObs(*obsListen, "fl fleet gateway",
		func() []metrics.PopulationProgress { return fleetProgress(fleet, populations) }); srv != nil {
		defer srv.Close()
	}

	if *tasksDir != "" {
		go watchTasksDir(fleet, *tasksDir)
	}

	allDone := make(chan struct{})
	go func() {
		for _, st := range states {
			done, ok := fleet.Done(st.name)
			if !ok {
				return
			}
			<-done
		}
		close(allDone)
	}()

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-allDone:
			for _, ps := range states {
				st, err := fleet.PopulationStats(ps.name)
				if err != nil {
					log.Fatalf("population %s: stats: %v", ps.name, err)
				}
				ckpt, err := ps.store.LatestCheckpoint(ps.plan.ID)
				if err != nil {
					log.Fatalf("population %s finished but no checkpoint: %v", ps.name, err)
				}
				fmt.Printf("%s done: %d rounds committed (%d failed), final round %d, |params|=%d\n",
					ps.name, st.Coordinator.RoundsCompleted, st.Coordinator.RoundsFailed, ckpt.Round, len(ckpt.Params))
			}
			return
		case <-ticker.C:
			logProgress(fleetProgress(fleet, populations))
		}
	}
}

// robustPolicy builds the norm-bound robust policy for a positive -clip
// (the only policy that distributes across shards; see plan.RobustPolicy).
func robustPolicy(clip float64) plan.RobustPolicy {
	if clip > 0 {
		return plan.RobustPolicy{Kind: plan.RobustNormBound, ClipNorm: clip}
	}
	return plan.RobustPolicy{}
}
