package shard

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/transport"
)

// TestObservabilityEndToEnd is the telemetry acceptance run: a sharded
// deployment (1 coordinator + 2 selector shards over real loopback TCP)
// must (a) serve an aggregated /metrics on the coordinator that includes
// per-shard seal-latency and check-in-rate series plus series shipped from
// the shards in TelemetrySnapshot frames, and (b) persist a JSONL round
// trace for a committed round whose lifecycle phases all have non-zero
// durations.
func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP observability e2e in -short mode")
	}
	const (
		pop     = "pop-obs"
		shards  = 2
		devices = 8
		target  = 4
	)
	p, err := plan.Generate(plan.Config{
		TaskID: pop + "/train", Population: pop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: target, MinReportFraction: 0.5,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := data.Blobs(data.BlobsConfig{
		Users: devices, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	store := newTraceMem()
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: pop,
		Plans:      []*plan.Plan{p},
		Store:      store,
		Steering:   pacing.New(time.Second),
		MaxRounds:  2,
		MinShards:  shards,
		SealGrace:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	coordL, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coordL.Close()
	go coord.Serve(coordL)
	coordAddr := coordL.Addr()

	// The coordinator's operator surface, on an ephemeral port.
	srv, err := obs.Default.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The shards run on a clock twenty times as fast as the coordinator's
	// (each process has its own): the two-second telemetry interval and the
	// rate probes this test waits for pass in a tenth of a second, and the
	// spans the shards time still have a length.
	shardClock := fastClock(t)
	shardDials := make([]func() (transport.Conn, error), shards)
	for i := 0; i < shards; i++ {
		sp := NewSelectorProc(SelectorConfig{
			Shard:              uint32(i),
			Steering:           pacing.New(time.Second),
			PopulationEstimate: devices,
			Seed:               uint64(23 + i*131),
			RateProbeInterval:  500 * time.Millisecond,
			Peer:               remote.Options{Clock: shardClock},
		}, func() (transport.Conn, error) { return transport.DialTCP(coordAddr) })
		defer sp.Close()
		l, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go sp.Serve(l)
		addr := l.Addr()
		shardDials[i] = func() (transport.Conn, error) { return transport.DialTCP(addr) }
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("obs-dev-%d", i)
		rt := device.NewRuntime(id, 3, nil, uint64(100+i))
		st, err := device.NewMemStore(pop+"-store", 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		for _, ex := range fed.Users[i] {
			st.Add(ex, now)
		}
		if err := rt.RegisterStore(st); err != nil {
			t.Fatal(err)
		}
		client := &flserver.DeviceClient{ID: id, Population: pop, Runtime: rt}
		dial := shardDials[i%shards]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if conn, err := dial(); err == nil {
					_, _ = client.RunOnce(conn)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	select {
	case <-coord.Done():
	case <-time.After(90 * time.Second):
		t.Fatal("rounds did not commit within 90s")
	}

	// (a) Aggregated /metrics: per-shard derived series plus shipped ones.
	metricsURL := fmt.Sprintf("http://%s/metrics", srv.Addr())
	want := []string{
		`fl_shard_seal_seconds{shard="0",quantile=`, // coordinator-derived seal latency
		`fl_shard_seal_seconds{shard="1",quantile=`,
		`fl_shard_checkin_rate{shard=`,          // coordinator-derived check-in rate
		`fl_seals_shipped_total{shard="0"}`,     // shipped in a TelemetrySnapshot
		`fl_checkins_total{shard=`,              // shard-local counter, shard-labeled
		"fl_rounds_committed_total",             // coordinator's own round counter
		`fl_round_phase_seconds{phase="commit"`, // tracer-fed phase summary
	}
	var body string
	deadline := time.Now().Add(15 * time.Second)
	for {
		body = httpGet(t, metricsURL)
		missing := ""
		for _, w := range want {
			if !strings.Contains(body, w) {
				missing = w
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never aggregated %q; got:\n%s", missing, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (b) A committed round's trace has every applicable lifecycle phase
	// with a non-zero duration.
	traces := store.RoundTraces()
	var committed *obs.RoundTrace
	for i := range traces {
		if traces[i].Committed {
			committed = &traces[i]
			break
		}
	}
	if committed == nil {
		t.Fatalf("no committed round trace persisted; traces: %+v", traces)
	}
	for _, phase := range []string{
		obs.PhaseCheckin, obs.PhaseConfigure, obs.PhaseReportWindow,
		obs.PhaseEdgeAccumulate, obs.PhaseCommit,
	} {
		if committed.Phases[phase] <= 0 {
			t.Errorf("committed trace phase %q has duration %d, want > 0 (phases: %v)",
				phase, committed.Phases[phase], committed.Phases)
		}
	}
	if committed.TotalNanos <= 0 || committed.Reports < target {
		t.Errorf("trace totals wrong: %+v", committed)
	}
	// And the same record round-trips through the JSONL encoding.
	line := committed.MarshalJSONL()
	if !strings.HasSuffix(string(line), "\n") || !strings.Contains(string(line), `"phases_ns"`) {
		t.Errorf("trace JSONL malformed: %s", line)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}
