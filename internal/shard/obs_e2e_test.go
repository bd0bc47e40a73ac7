package shard

import (
	"encoding/json"
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
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/storage"
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
	srv, err := metrics.Default.Serve("127.0.0.1:0")
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
	var committed *metrics.RoundTrace
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
		metrics.PhaseCheckin, metrics.PhaseConfigure, metrics.PhaseReportWindow,
		metrics.PhaseEdgeAccumulate, metrics.PhaseCommit,
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

// TestDeadShardTelemetryLeaves runs the 1 + 2 rig above, stops shard 1, and
// checks that the coordinator stops serving what shard 1 shipped: once
// Stats counts one shard, every series rendered under shard 1's label is one
// the coordinator derives itself (its cumulative fl_shard_seals_total
// rightly stays), shard 1's check-in rate reads zero, and /dashboard's
// selection-pool line sums only the pools still served.
func TestDeadShardTelemetryLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP observability e2e in -short mode")
	}
	const (
		pop     = "pop-dead"
		devices = 8
	)
	p, err := plan.Generate(plan.Config{
		TaskID: pop + "/train", Population: pop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 4, MinReportFraction: 0.5,
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
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: pop, Plans: []*plan.Plan{p}, Store: storage.NewMem(),
		Steering: pacing.New(time.Second), MinShards: 2, SealGrace: 2 * time.Second,
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
	srv, err := metrics.Default.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	shardClock := fastClock(t)
	procs := make([]*SelectorProc, 2)
	listeners := make([]transport.Listener, 2)
	for i := range procs {
		procs[i] = NewSelectorProc(SelectorConfig{
			Shard: uint32(i), Steering: pacing.New(time.Second), PopulationEstimate: devices,
			Seed: uint64(29 + i*131), RateProbeInterval: 500 * time.Millisecond,
			Peer: remote.Options{Clock: shardClock},
		}, func() (transport.Conn, error) { return transport.DialTCP(coordL.Addr()) })
		if listeners[i], err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go procs[i].Serve(listeners[i])
	}
	// A device parked in a Selector's pool stays parked when its shard
	// closes, so the test closes what its devices hold open.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var open sync.Map
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("dead-dev-%d", i)
		rt := device.NewRuntime(id, 3, nil, uint64(100+i))
		st, err := device.NewMemStore(pop+"-store", 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range fed.Users[i] {
			st.Add(ex, time.Now())
		}
		if err := rt.RegisterStore(st); err != nil {
			t.Fatal(err)
		}
		client := &flserver.DeviceClient{ID: id, Population: pop, Runtime: rt}
		addr := listeners[i%2].Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if conn, err := transport.DialTCP(addr); err == nil {
					open.Store(conn, nil)
					select {
					case <-stop:
					default:
						_, _ = client.RunOnce(conn)
					}
					open.Delete(conn)
					conn.Close()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	defer func() {
		close(stop)
		open.Range(func(conn, _ any) bool { conn.(transport.Conn).Close(); return true })
		wg.Wait()
		procs[0].Close()
		listeners[0].Close()
	}()

	vars := func() map[string]any {
		var doc map[string]any
		if err := json.Unmarshal([]byte(httpGet(t, fmt.Sprintf("http://%s/debug/vars", srv.Addr()))), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	const linkUp, rate = `fl_coordinator_link_up{shard="1"}`, `fl_shard_checkin_rate{shard="1"}`
	waitUntil(t, "shard 1's snapshot and check-in rate on the coordinator", func() bool {
		v := vars()
		r, _ := v[rate].(float64)
		return v[linkUp] == 1.0 && r > 0
	})

	procs[1].Close()
	listeners[1].Close()
	waitUntil(t, "the coordinator to count one shard", func() bool {
		st, err := coord.Stats()
		return err == nil && st.Shards == 1
	})

	local := metrics.Default.Export()
	served := vars()
	for name := range served {
		if !strings.HasSuffix(name, `shard="1"}`) {
			continue
		}
		_, c := local.Counters[name]
		_, g := local.Gauges[name]
		_, s := local.Summaries[name]
		if !c && !g && !s {
			t.Errorf("%s is still served from dead shard 1's last snapshot", name)
		}
	}
	if served[rate] != 0.0 {
		t.Errorf("%s = %v after shard 1 died, want 0", rate, served[rate])
	}
	if _, ok := served[`fl_shard_seals_total{shard="1"}`]; !ok {
		t.Error(`the coordinator's own fl_shard_seals_total{shard="1"} went with the shard`)
	}
	// Devices still check in on shard 0, so the pool may move between two
	// reads; the line must settle on the sum of the series still served.
	waitUntil(t, "/dashboard's pool line to sum the pools still served", func() bool {
		pooled := 0.0
		for name, v := range vars() {
			if strings.HasPrefix(name, "fl_selector_pooled{") {
				pooled += v.(float64)
			}
		}
		return strings.Contains(httpGet(t, fmt.Sprintf("http://%s/dashboard", srv.Addr())),
			fmt.Sprintf("selection pool: %.0f device(s)", pooled))
	})
}
