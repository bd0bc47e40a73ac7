// Command flselector runs ONE selector shard of a sharded FL deployment
// (DESIGN.md process-topology section): it terminates device TCP
// connections, runs the edge decode-and-accumulate stripes for each round
// the coordinator opens, and ships a single sealed stripe upstream per
// round — device updates never leave this process.
//
//	flserver   -shard-listen :8760 -population gboard -rounds 10 -min-shards 3
//	flselector -coordinator localhost:8760 -addr :8751 -shard 0
//	flselector -coordinator localhost:8760 -addr :8752 -shard 1
//	flselector -coordinator localhost:8760 -addr :8753 -shard 2
//	fldevices  -addr localhost:8751,localhost:8752,localhost:8753 -population gboard
//
// The coordinator link reconnects with exponential backoff and heartbeat
// liveness; while it is down, parked devices are steered away with
// pace-steering retry hints instead of stranding on a dead shard.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/shard"
	"repro/internal/transport"
)

func main() {
	coordAddr := flag.String("coordinator", "localhost:8760", "coordinator shard-listen address")
	addr := flag.String("addr", ":8751", "device-facing TCP listen address")
	shardID := flag.Uint("shard", 0, "stable 0-based shard index")
	name := flag.String("name", "", "shard name in stats and logs (default shard-<N>)")
	selectors := flag.Int("selectors", 1, "Selector actors terminating device connections")
	seed := flag.Uint64("seed", 1, "random seed")
	obsListen := flag.String("obs-listen", "", "serve /metrics, /debug/vars, /debug/pprof and /dashboard on this address (empty = off)")
	chaosPlan := flag.String("chaos", "", `fault-injection plan for the coordinator link as "seed=N SPEC" — the form a run logs it in — e.g. "seed=1 shard:drop=0.05,jitter=200ms;shard:partition@6s+2s" (empty = off)`)
	flag.Parse()

	dial := func() (transport.Conn, error) { return transport.DialTCP(*coordAddr) }
	var inj *chaos.Injector // nil wraps nothing: chaos off is the zero value
	if *chaosPlan != "" {
		seed, spec, err := parseChaosPlan(*chaosPlan)
		if err != nil {
			log.Fatal(err)
		}
		inj = chaos.New(seed, spec, nil)
		dial = inj.WrapDialer(chaos.Role(fmt.Sprintf("shard:%d", *shardID)), dial)
		log.Printf("shard %d: %s", *shardID, inj.Plan())
	}

	sp := shard.NewSelectorProc(shard.SelectorConfig{
		Shard:        uint32(*shardID),
		Name:         *name,
		NumSelectors: *selectors,
		Steering:     pacing.New(time.Minute),
		Seed:         *seed + uint64(*shardID)*131,
	}, dial)
	defer sp.Close()

	l, err := transport.ListenTCP(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	log.Printf("selector shard %d serving devices on %s, coordinator %s", *shardID, l.Addr(), *coordAddr)

	if srv, err := metrics.Default.Serve(*obsListen, metrics.WithTitle(fmt.Sprintf("fl selector shard %d", *shardID))); err != nil {
		log.Fatal(err)
	} else if srv != nil {
		defer srv.Close()
		log.Printf("observability surface on http://%s (/metrics, /debug/vars, /debug/pprof, /dashboard)", srv.Addr())
	}

	go func() {
		ticker := time.NewTicker(2 * time.Second)
		defer ticker.Stop()
		for range ticker.C {
			st, err := sp.Stats()
			if err != nil {
				log.Printf("shard %d: stats unavailable: %v", *shardID, err)
				continue
			}
			link := "up"
			if !st.CoordinatorUp {
				link = "DOWN"
			}
			log.Printf("shard %d: coordinator %s; accepted=%d rejected=%d pooled=%d; seals=%d up-bytes=%d dropped=%d",
				*shardID, link, st.Selector.Accepted, st.Selector.Rejected, st.Selector.Pooled,
				st.SealsShipped, st.BytesShipped, st.RoundsDropped)
			if counts := inj.FaultCounts(); len(counts) > 0 {
				log.Printf("shard %d: chaos faults: %v", *shardID, counts)
			}
		}
	}()

	// Serve blocks until the listener closes (process killed).
	sp.Serve(l)
	fmt.Printf("shard %d: device listener closed\n", *shardID)
}

// parseChaosPlan reads "seed=N SPEC", which is what Injector.Plan logs after
// its "chaos: " prefix: pasting a run's logged plan back reproduces its
// fault schedule.
func parseChaosPlan(plan string) (uint64, chaos.Spec, error) {
	seedText, specText, _ := strings.Cut(plan, " ")
	var seed uint64
	if _, err := fmt.Sscanf(seedText, "seed=%d", &seed); err != nil {
		return 0, chaos.Spec{}, fmt.Errorf(`-chaos %q: want "seed=N SPEC"`, plan)
	}
	spec, err := chaos.ParseSpec(specText)
	return seed, spec, err
}
