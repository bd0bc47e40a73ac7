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
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestObservabilityEndToEnd is the telemetry acceptance run: a sharded
// deployment (1 coordinator + 2 selector shards on one virtual clock over
// the mem network; scripts/smoke_sharded.sh runs it as processes over TCP)
// must (a) serve an aggregated /metrics on the coordinator that includes
// per-shard seal-latency and check-in-rate series plus series shipped from
// the shards in TelemetrySnapshot frames, and (b) persist a JSONL round
// trace for a committed round whose lifecycle phases all have non-zero
// durations.
func TestObservabilityEndToEnd(t *testing.T) {
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
	r := startObsRig(t, CoordinatorConfig{
		Population: pop, Plans: []*plan.Plan{p}, Store: store, Steering: pacing.New(time.Second),
		MaxRounds: 2, MinShards: shards, SealGrace: 2 * time.Second,
	}, shards, devices)
	startSwarm(t, r.clock, pop, fed, func(i int) (transport.Conn, error) { return r.net.Dial(fmt.Sprint("shard-", i%shards)) })
	until(t, r.clock, "the rounds to commit", closed(r.coord.Done()))

	// (a) Aggregated /metrics: per-shard derived series plus shipped ones.
	metricsURL := fmt.Sprintf("http://%s/metrics", r.srv.Addr())
	want := []string{
		`fl_shard_seal_seconds{shard="0",quantile=`, // coordinator-derived seal latency
		`fl_shard_seal_seconds{shard="1",quantile=`,
		`fl_shard_checkin_rate{shard=`,          // coordinator-derived check-in rate
		`fl_seals_shipped_total{shard="0"}`,     // shipped in a TelemetrySnapshot
		`fl_checkins_total{shard=`,              // shard-local counter, shard-labeled
		"fl_rounds_committed_total",             // coordinator's own round counter
		`fl_round_phase_seconds{phase="commit"`, // tracer-fed phase summary
		`fl_fold_kernel{impl=`,                  // the host's fold, set at start
	}
	var body, missing string
	if err := r.clock.Run(time.Minute, func() bool {
		body, missing = httpGet(t, metricsURL), ""
		for _, w := range want {
			if !strings.Contains(body, w) {
				missing = w
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("/metrics never aggregated %q (%v); got:\n%s", missing, err, body)
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
	r := startObsRig(t, CoordinatorConfig{
		Population: pop, Plans: []*plan.Plan{p}, Store: storage.NewMem(), Steering: pacing.New(time.Second),
		MinShards: 2, SealGrace: 2 * time.Second,
	}, 2, devices)
	// A device parked in a Selector's pool stays parked when its shard
	// closes, so the test closes what its devices hold open.
	var open sync.Map
	t.Cleanup(func() { open.Range(func(conn, _ any) bool { conn.(transport.Conn).Close(); return true }) })
	startSwarm(t, r.clock, pop, fed, func(i int) (transport.Conn, error) {
		conn, err := r.net.Dial(fmt.Sprint("shard-", i%2))
		if err == nil {
			open.Store(conn, nil)
		}
		return conn, err
	})

	vars := func() map[string]any {
		var doc map[string]any
		if err := json.Unmarshal([]byte(httpGet(t, fmt.Sprintf("http://%s/debug/vars", r.srv.Addr()))), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	const linkUp, rate = `fl_coordinator_link_up{shard="1"}`, `fl_shard_checkin_rate{shard="1"}`
	until(t, r.clock, "shard 1's snapshot and check-in rate on the coordinator", func() bool {
		v := vars()
		r, _ := v[rate].(float64)
		return v[linkUp] == 1.0 && r > 0
	})

	r.shards[1]()
	until(t, r.clock, "the coordinator to count one shard", func() bool {
		st, err := r.coord.Stats()
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
	until(t, r.clock, "/dashboard's pool line to sum the pools still served", func() bool {
		pooled := 0.0
		for name, v := range vars() {
			if strings.HasPrefix(name, "fl_selector_pooled{") {
				pooled += v.(float64)
			}
		}
		return strings.Contains(httpGet(t, fmt.Sprintf("http://%s/dashboard", r.srv.Addr())),
			fmt.Sprintf("selection pool: %.0f device(s)", pooled))
	})
}

// obsRig is a sharded deployment on one virtual clock over the mem network
// — the coordinator listening at "coord", shard i at "shard-i" — with the
// coordinator's operator surface on an ephemeral port.
type obsRig struct {
	clock  *simclock.Virtual
	coord  *CoordinatorProc
	net    *transport.MemNetwork
	srv    *metrics.Server
	shards []func() // stops shard i: its process, then its listener
}

// startObsRig starts the coordinator of cfg and n selector shards.
func startObsRig(t *testing.T, cfg CoordinatorConfig, n, devices int) *obsRig {
	t.Helper()
	clock := newClock()
	cfg.Clock = clock
	r := &obsRig{clock: clock, net: transport.NewMemNetwork(clock)}
	coord, err := NewCoordinatorProc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.coord = coord
	t.Cleanup(coord.Close)
	coordL, err := r.net.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coordL.Close() })
	clock.Go(func() { coord.Serve(coordL) })
	if r.srv, err = metrics.Default.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.srv.Close() })
	for i := 0; i < n; i++ {
		sp := NewSelectorProc(SelectorConfig{
			Shard: uint32(i), Steering: pacing.New(time.Second), PopulationEstimate: devices,
			Seed: uint64(23 + i*131), Peer: remote.Options{Clock: clock},
		}, func() (transport.Conn, error) { return r.net.Dial("coord") })
		l, err := r.net.Listen(fmt.Sprint("shard-", i))
		if err != nil {
			t.Fatal(err)
		}
		stop := func() { sp.Close(); l.Close() }
		r.shards = append(r.shards, stop)
		t.Cleanup(stop)
		clock.Go(func() { sp.Serve(l) })
	}
	return r
}
