package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/transport"
)

const stormPop = "pop-storm"

// configRecorder tallies RoundConfig frames observed on each shard's
// coordinator link, keyed by (shard, round) — the exactly-once evidence for
// the reconnect-storm test.
type configRecorder struct {
	mu     sync.Mutex
	counts map[[2]int64]int
}

func newConfigRecorder() *configRecorder {
	return &configRecorder{counts: make(map[[2]int64]int)}
}

func (r *configRecorder) note(shard uint32, round int64) {
	r.mu.Lock()
	r.counts[[2]int64{int64(shard), round}]++
	r.mu.Unlock()
}

func (r *configRecorder) snapshot() map[[2]int64]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[[2]int64]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// countingConn wraps a shard's coordinator link and records every inbound
// RoundConfig.
type countingConn struct {
	transport.Conn
	shard uint32
	rec   *configRecorder
}

func (c *countingConn) Recv() (interface{}, error) {
	msg, err := c.Conn.Recv()
	if err == nil {
		if rc, ok := msg.(protocol.RoundConfig); ok {
			c.rec.note(c.shard, rc.Round)
		}
	}
	return msg, err
}

// TestReconnectStormResumesExactlyOnce is the reconnect-storm satellite: N
// shards lose the coordinator at once (process crash), the coordinator
// respawns on the same address and store, and every shard redials
// simultaneously. With MinShards=N the next round cannot start until the
// whole storm has re-announced, and each shard must resume the live round
// config exactly once — one RoundConfig frame per (shard, round) on the
// wire, one EdgeRound opened per round per shard, no duplicate fan-out from
// the reconnect races. Run under -race (CI does).
func TestReconnectStormResumesExactlyOnce(t *testing.T) {
	const numShards = 3
	p, err := plan.Generate(plan.Config{
		TaskID: stormPop + "/train", Population: stormPop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: stormPop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: numShards, MinReportFraction: 0.34,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := newClock()
	net := transport.NewMemNetwork(clock)
	store := storage.NewMem()
	rec := newConfigRecorder()
	var linkUp atomic.Bool
	linkUp.Store(true)

	var connMu sync.Mutex
	var liveConns []transport.Conn

	startCoordinator := func(maxRounds int) (*CoordinatorProc, transport.Listener) {
		coord, err := NewCoordinatorProc(CoordinatorConfig{
			Population: stormPop,
			Plans:      []*plan.Plan{p},
			Store:      store,
			Steering:   pacing.New(time.Second),
			MaxRounds:  maxRounds,
			MinShards:  numShards,
			SealGrace:  500 * time.Millisecond,
			TickEvery:  50 * time.Millisecond,
			Clock:      clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		l, err := net.Listen("coord")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		clock.Go(func() { coord.Serve(l) })
		return coord, l
	}

	coord, coordL := startCoordinator(1)

	// N shards, each with a counting, severable dialer.
	shards := make([]*SelectorProc, numShards)
	for i := 0; i < numShards; i++ {
		idx := uint32(i)
		dial := func() (transport.Conn, error) {
			if !linkUp.Load() {
				return nil, fmt.Errorf("storm test: coordinator down")
			}
			c, err := net.Dial("coord")
			if err != nil {
				return nil, err
			}
			wrapped := &countingConn{Conn: c, shard: idx, rec: rec}
			connMu.Lock()
			liveConns = append(liveConns, wrapped)
			connMu.Unlock()
			return wrapped, nil
		}
		proc := NewSelectorProc(SelectorConfig{
			Shard:              idx,
			Steering:           pacing.New(time.Second),
			PopulationEstimate: 32,
			Seed:               17 + uint64(i),
			Peer:               remote.Options{Clock: clock},
		}, dial)
		t.Cleanup(proc.Close)
		shards[i] = proc
		l, err := net.Listen(fmt.Sprintf("storm-shard-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		clock.Go(func() { proc.Serve(l) })
	}

	// A device swarm per shard keeps check-ins flowing across the crash.
	fed, err := data.Blobs(data.BlobsConfig{
		Users: numShards * 2, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	startSwarm(t, clock, stormPop, fed, func(i int) (transport.Conn, error) {
		return net.Dial(fmt.Sprintf("storm-shard-%d", i%numShards))
	})

	// Round 1 commits with all shards participating.
	until(t, clock, "the first coordinator's round", closed(coord.Done()))
	first, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: listener gone, process gone, every live shard link severed at
	// once — the whole fleet starts redialing together.
	coordL.Close()
	coord.Close()
	linkUp.Store(false)
	connMu.Lock()
	severed := liveConns
	liveConns = nil
	connMu.Unlock()
	for _, c := range severed {
		c.Close()
	}

	for _, proc := range shards {
		proc := proc
		until(t, clock, "every shard notices the crash", func() bool {
			st, err := proc.Stats()
			return err == nil && !st.CoordinatorUp
		})
	}
	coord, _ = startCoordinator(1)
	linkUp.Store(true) // the storm: all shards redial simultaneously

	until(t, clock, "the respawned coordinator's round through the storm", closed(coord.Done()))
	second, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if second.Round <= first.Round {
		t.Fatalf("lineage did not advance across the storm: round %d -> %d", first.Round, second.Round)
	}

	// Exactly-once: every (shard, round) saw its RoundConfig exactly one
	// time on the wire — the respawned coordinator's fan-out did not double
	// up under the simultaneous re-announcements.
	counts := rec.snapshot()
	rounds := map[int64]bool{}
	for key, n := range counts {
		rounds[key[1]] = true
		if n != 1 {
			t.Errorf("shard %d received round %d's config %d times, want exactly 1", key[0], key[1], n)
		}
	}
	for s := 0; s < numShards; s++ {
		for r := range rounds {
			if counts[[2]int64{int64(s), r}] != 1 {
				t.Errorf("shard %d missing round %d's config: counts=%v", s, r, counts)
			}
		}
	}

	// And each shard opened exactly one EdgeRound per round — duplicate or
	// re-sent configs never re-open a round.
	for i, proc := range shards {
		st, err := proc.Stats()
		if err != nil {
			t.Fatalf("shard %d stats: %v", i, err)
		}
		if st.RoundsOpened != int64(len(rounds)) {
			t.Errorf("shard %d opened %d rounds, want %d (one per committed round)", i, st.RoundsOpened, len(rounds))
		}
	}
}
