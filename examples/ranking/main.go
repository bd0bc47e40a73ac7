// On-device item ranking (Sec. 8): "a common use of machine learning in
// mobile applications is selecting and ranking items from an on-device
// inventory… each user interaction with the ranking feature can become a
// labeled data point."
//
// This example runs the *full protocol*, not just the algorithm: an
// actor-based FL server (Coordinator, Selectors, EdgeRound,
// Aggregators) over an in-memory transport, with a fleet of device runtimes
// holding click data in their example stores.
//
//	go run ./examples/ranking
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	repro "repro"

	"repro/internal/flserver"
	"repro/internal/plan"
)

func main() {
	const (
		numDevices = 24
		items      = 6
		features   = 8
		rounds     = 8
	)

	// Click feedback: each user's taps on ranked items, non-IID because
	// every user has favourite items.
	fed, err := repro.Ranking(repro.RankingConfig{
		Users: numDevices, ExamplesPer: 50, Features: features, Items: items,
		TestSize: 500, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The model engineer's task: rank items from context features.
	p, err := repro.GeneratePlan(repro.TaskConfig{
		TaskID:           "ranker/train",
		Population:       "ranker",
		Model:            repro.ModelSpec{Kind: repro.KindLogistic, Features: features, Classes: items, Seed: 3},
		StoreName:        "clicks",
		BatchSize:        10,
		Epochs:           2,
		LearningRate:     0.05,
		TargetDevices:    8,
		SelectionTimeout: 3 * time.Second,
		ReportTimeout:    10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	store := repro.NewMemStorage()
	srv, err := repro.NewServer(flserver.Config{
		Population: "ranker",
		Plans:      []*plan.Plan{p},
		Store:      store,
		Steering:   repro.NewPaceSteering(2 * time.Second),
		MaxRounds:  rounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	net := repro.NewMemNetwork()
	l, err := net.Listen("fl")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	// The device fleet: each phone registers its click store and loops
	// through check-in / train / report.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < numDevices; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			clicks, err := repro.NewExampleStore("clicks", 1000, 0)
			if err != nil {
				log.Fatal(err)
			}
			now := time.Now()
			for _, ex := range fed.Users[i] {
				clicks.Add(ex, now)
			}
			rt := repro.NewDeviceRuntime(fmt.Sprintf("phone-%d", i), 3, uint64(i))
			if err := rt.RegisterStore(clicks); err != nil {
				log.Fatal(err)
			}
			client := &flserver.DeviceClient{ID: fmt.Sprintf("phone-%d", i), Population: "ranker", Runtime: rt}
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := net.Dial("fl")
				if err != nil {
					return
				}
				if _, err := client.RunOnce(conn); err != nil {
					time.Sleep(50 * time.Millisecond)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	<-srv.Done()
	close(stop)
	wg.Wait()

	st, err := srv.Stats()
	if err != nil {
		log.Fatal(err)
	}
	ckpt, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		log.Fatal(err)
	}
	m, err := p.Device.Model.Build()
	if err != nil {
		log.Fatal(err)
	}
	m.WriteParams(ckpt.Params)
	met := m.Evaluate(fed.Test)
	fmt.Printf("committed %d rounds (%d failed); global model round %d\n",
		st.RoundsCompleted, st.RoundsFailed, ckpt.Round)
	fmt.Printf("ranking accuracy (top-1 click prediction over %d items): %.3f (chance %.3f)\n",
		items, met.Accuracy, 1.0/float64(items))
}
