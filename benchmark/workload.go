package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/transport"
)

const (
	population = "bench"
	taskID     = "bench/round"
	// updateWeight is every stub's aggregation weight. A power of two keeps
	// the weighted mean of dyadic payloads exact in float64.
	updateWeight = 4.0
	// pacingWindow is the pace-steering round period of every workload.
	pacingWindow = time.Second
	// shardTick paces the sharded coordinator's scheduling loop. Rounds
	// chain without waiting for it; it only bounds how long the first round
	// waits for the shards to connect, so set-up time is not mostly idling.
	shardTick = 10 * time.Millisecond
)

// workload is one named set of inputs: the round's size, its uplink
// encoding, the links it crosses and the topology that serves it.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// K is the number of reports a round needs; Dim the parameter count.
	K, Dim   int
	Encoding checkpoint.Encoding
	TCP      bool
	// Shards > 0 selects the 1 coordinator + Shards selector topology.
	Shards int
	// Stubs is the number of stub devices (K in-process, 2K sharded).
	Stubs int
	// SecAggGroup > 0 runs the round under Secure Aggregation.
	SecAggGroup int
}

var workloads = []workload{
	{Name: "uplink_f64_tcp", K: 128, Dim: 65536, Encoding: checkpoint.EncodingFloat64, TCP: true, Stubs: 128,
		Why: "canonical round: codec, TCP frames and float fold carry 512 KB x K each way; wire and ingest changes show here"},
	{Name: "uplink_f64_mem", K: 128, Dim: 65536, Encoding: checkpoint.EncodingFloat64, Stubs: 128,
		Why: "same round over MemNetwork: codec and frames do nothing, so fold, stripe merge and actor hops dominate"},
	{Name: "uplink_q8_tcp", K: 128, Dim: 65536, Encoding: checkpoint.EncodingQuant8, TCP: true, Stubs: 128,
		Why: "quant8 uplink, float64 downlink: the dequantize-and-fold branch and the uplink/downlink asymmetry"},
	{Name: "control_small_tcp", K: 128, Dim: 256, Encoding: checkpoint.EncodingFloat64, TCP: true, Stubs: 128,
		Why: "tiny payload: selection, pacing, actor hops, plan marshal, accept/close and small frames are the whole round"},
	{Name: "sharded_f64_tcp", K: 128, Dim: 65536, Encoding: checkpoint.EncodingFloat64, TCP: true, Shards: 3, Stubs: 256,
		Why: "1 coordinator + 3 selector shards over TCP: second round engine, peer link, stripe seal and O(model) upstream"},
	{Name: "secure_small_tcp", K: 128, Dim: 4096, Encoding: checkpoint.EncodingFloat64, TCP: true, Stubs: 128, SecAggGroup: 16,
		Why: "Secure Aggregation in groups of 16: mask expansion, share routing and unmask dominate; bypasses the edge fold"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// params is the workload as recorded in a result's stamp.
func (w workload) params() map[string]any {
	enc := "float64"
	if w.Encoding == checkpoint.EncodingQuant8 {
		enc = "quant8"
	}
	link := "mem"
	if w.TCP {
		link = "tcp"
	}
	return map[string]any{"k": w.K, "dim": w.Dim, "encoding": enc, "link": link,
		"shards": w.Shards, "stubs": w.Stubs, "secagg_group": w.SecAggGroup,
		"over_select": 1.0, "pacing_window_s": pacingWindow.Seconds(), "warmup_rounds": warmupRounds}
}

func (w workload) plan() (*plan.Plan, error) {
	return plan.Generate(plan.Config{
		TaskID: taskID, Population: population,
		// The server sizes the round from the stored checkpoint, so the
		// model spec stays tiny while the wire payloads are Dim wide.
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "bench", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
		TargetDevices:     w.K,
		OverSelectFactor:  1.0,
		SelectionTimeout:  time.Minute,
		ReportTimeout:     time.Minute,
		ReportEncoding:    w.Encoding,
		SecureAggregation: w.SecAggGroup > 0,
		SecAggGroupSize:   w.SecAggGroup,
	})
}

// topology is one running server plus the addresses stubs dial.
type topology struct {
	dials []func() (transport.Conn, error)
	// stats reports the rounds the server counted as failed and the
	// cumulative shard→coordinator bytes (zero without shards).
	stats   func() (failedRounds int, upstream int64, err error)
	closers []func()
}

func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// build starts the workload's topology over store. Only exported
// constructors are used, so the benchmark survives a merge of the two round
// engines unchanged.
func (w workload) build(store *benchStore, seed uint64) (*topology, error) {
	p, err := w.plan()
	if err != nil {
		return nil, err
	}
	t := &topology{}
	mem := transport.NewMemNetwork()
	listen := func(name string) (transport.Listener, func() (transport.Conn, error), error) {
		if w.TCP {
			l, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			addr := l.Addr()
			return l, func() (transport.Conn, error) { return transport.DialTCP(addr) }, nil
		}
		l, err := mem.Listen(name)
		if err != nil {
			return nil, nil, err
		}
		return l, func() (transport.Conn, error) { return mem.Dial(name) }, nil
	}

	if w.Shards == 0 {
		srv, err := flserver.New(flserver.Config{
			Population: population, Plans: []*plan.Plan{p}, Store: store,
			Steering: pacing.New(pacingWindow), PopulationEstimate: w.Stubs, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, srv.Close)
		t.stats = func() (int, int64, error) {
			st, err := srv.Stats()
			return st.RoundsFailed, 0, err
		}
		l, dial, err := listen("server")
		if err != nil {
			t.close()
			return nil, err
		}
		t.closers = append(t.closers, func() { l.Close() })
		go srv.Serve(l)
		t.dials = append(t.dials, dial)
		return t, nil
	}

	coord, err := shard.NewCoordinatorProc(shard.CoordinatorConfig{
		Population: population, Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(pacingWindow), PopulationEstimate: w.Stubs,
		MinShards: w.Shards, TickEvery: shardTick,
	})
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, coord.Close)
	t.stats = func() (int, int64, error) {
		st, err := coord.Stats()
		return st.RoundsFailed, st.BytesUpstream, err
	}
	coordL, coordDial, err := listen("coord")
	if err != nil {
		t.close()
		return nil, err
	}
	t.closers = append(t.closers, func() { coordL.Close() })
	go coord.Serve(coordL)
	for i := 0; i < w.Shards; i++ {
		sp := shard.NewSelectorProc(shard.SelectorConfig{
			Shard: uint32(i), Steering: pacing.New(pacingWindow),
			PopulationEstimate: w.Stubs, Seed: seed + uint64(i)*131,
		}, coordDial)
		t.closers = append(t.closers, sp.Close)
		l, dial, err := listen(fmt.Sprintf("shard-%d", i))
		if err != nil {
			t.close()
			return nil, err
		}
		t.closers = append(t.closers, func() { l.Close() })
		go sp.Serve(l)
		t.dials = append(t.dials, dial)
	}
	return t, nil
}
