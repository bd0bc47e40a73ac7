// Command fldevices runs a simulated device fleet against a TCP FL fleet
// gateway started with cmd/flserver:
//
//	fldevices -addr localhost:8750 -population gboard -devices 40
//	fldevices -addr localhost:8750 -population gboard,search,photos
//
// -addr accepts a comma-separated list for a SHARDED deployment (one
// address per flselector process); device i homes on address i mod N, so
// the swarm spreads evenly across the selector shards:
//
//	fldevices -addr localhost:8751,localhost:8752,localhost:8753 -population gboard
//
// -population may be repeated and/or comma-separated. Each device is
// multi-tenant (Sec. 3): it holds a non-IID slice of a synthetic
// classification dataset in its example store, registers with EVERY named
// population, and loops one connection at a time under the on-device
// Scheduler — one check-in per population per pass, training sessions
// strictly sequential, rejected check-ins backing off per pace steering.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/transport"
)

func main() {
	var populations cliutil.ListFlag
	var addrs cliutil.ListFlag
	flag.Var(&addrs, "addr", "FL server address(es); comma-separated for sharded deployments, device i homes on address i mod N (default localhost:8750)")
	flag.Var(&populations, "population", "FL population name(s); repeatable, comma-separated (default gboard)")
	devices := flag.Int("devices", 40, "number of simulated devices")
	duration := flag.Duration("duration", 10*time.Minute, "how long to run")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()
	if len(populations) == 0 {
		populations = cliutil.ListFlag{"gboard"}
	}
	if len(addrs) == 0 {
		addrs = cliutil.ListFlag{"localhost:8750"}
	}

	fed, err := data.Blobs(data.BlobsConfig{
		Users: *devices, ExamplesPer: 40, Features: 8, Classes: 4,
		TestSize: 1, Skew: 0.5, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	var completed, rejected, failed int64
	stop := time.After(*duration)
	done := make(chan struct{})
	go func() {
		<-stop
		close(done)
	}()

	var wg sync.WaitGroup
	for i := 0; i < *devices; i++ {
		i := i
		wg.Add(1)
		// Shard-aware homing: this device always dials the same address.
		addr := addrs[i%len(addrs)]
		go func() {
			defer wg.Done()
			// One runtime and one example store serve every population (the
			// plans all read the "examples" store); the per-device Scheduler
			// guarantees sessions never overlap.
			store, err := device.NewMemStore("examples", 1000, 0)
			if err != nil {
				log.Fatal(err)
			}
			now := time.Now()
			for _, ex := range fed.Users[i] {
				store.Add(ex, now)
			}
			rt := device.NewRuntime(fmt.Sprintf("dev-%d", i), 3, nil, *seed+uint64(i))
			if err := rt.RegisterStore(store); err != nil {
				log.Fatal(err)
			}
			clients := make([]*device.Client, len(populations))
			for pi, pop := range populations {
				clients[pi] = &device.Client{
					ID: fmt.Sprintf("dev-%d", i), Population: pop, Runtime: rt,
				}
			}
			sched := device.NewScheduler()
			for {
				select {
				case <-done:
					return
				default:
				}
				// One pass of the connection loop: the periodic job enqueues
				// one session per registered population; the scheduler runs
				// them strictly sequentially (Sec. 3 Multi-Tenancy).
				var minRetry time.Duration
				dialErr := false
				for _, c := range clients {
					c := c
					_ = sched.Enqueue(&device.Job{Population: c.Population, Run: func() {
						conn, err := transport.DialTCP(addr)
						if err != nil {
							// Server gone or not yet up.
							dialErr = true
							return
						}
						out, err := c.RunOnce(conn)
						switch {
						case err != nil:
							atomic.AddInt64(&failed, 1)
						case out.ReportAccepted:
							atomic.AddInt64(&completed, 1)
						case !out.Accepted:
							atomic.AddInt64(&rejected, 1)
							if out.RetryAfter > 0 && (minRetry == 0 || out.RetryAfter < minRetry) {
								minRetry = out.RetryAfter
							}
						}
					}})
				}
				if _, err := sched.DrainAll(); err != nil {
					log.Fatal(err)
				}
				// Back off per the tightest pace-steering hint, compressed
				// for the demo; dial failures wait a full second.
				wait := minRetry
				if wait <= 0 {
					wait = 100 * time.Millisecond
				}
				if wait > 5*time.Second {
					wait = time.Second
				}
				if dialErr {
					wait = time.Second
				}
				select {
				case <-done:
					return
				case <-time.After(wait):
				}
			}
		}()
	}

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	go func() {
		for range ticker.C {
			log.Printf("fleet (%d populations): %d updates accepted, %d rejections, %d errors",
				len(populations), atomic.LoadInt64(&completed), atomic.LoadInt64(&rejected), atomic.LoadInt64(&failed))
		}
	}()
	wg.Wait()
	fmt.Printf("fleet done: %d updates accepted, %d rejections, %d errors\n",
		atomic.LoadInt64(&completed), atomic.LoadInt64(&rejected), atomic.LoadInt64(&failed))
}
