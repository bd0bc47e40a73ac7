package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/secagg"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// replayBudget is how long each layer operation is timed for.
const replayBudget = 80 * time.Millisecond

// actorHopsPerRound models the mailbox hops of a round from the code paths
// the stubs drive: router→selector per check-in; selector→round and
// reader→round per accepted session, plus one more for the group
// Aggregator hop; a dozen control messages (tick, quota, forward, finalize,
// group results, round complete) per round.
func actorHopsPerRound(sessions, rejects float64) float64 {
	return 3*sessions + rejects + 12
}

// layerOp is one public operation of one layer, at the workload's exact
// message shape, and how many times a round performs it.
type layerOp struct {
	name     string // "<layer>.<op>"
	perRound float64
	run      func()
	// child operations are contained in this one's time (a frame round
	// trip marshals and unmarshals); busy time is reported net of them.
	children []*layerOp
	cost     layerCost
}

type layerCost struct{ ns, cpuNs, allocB float64 }

// timeOp times run alone for replayBudget: wall and process CPU (the
// sender and receiver halves of a frame run on two goroutines, and the
// collector's share of an allocating layer counts) and bytes allocated.
func timeOp(run func()) layerCost {
	run() // first call pays lazy set-up
	n := 0
	cpu0, alloc0, start := cpuNanos(), allocBytes(), time.Now()
	for time.Since(start) < replayBudget {
		run()
		n++
	}
	wall := time.Since(start)
	f := float64(n)
	return layerCost{ns: float64(wall.Nanoseconds()) / f, cpuNs: float64(cpuNanos()-cpu0) / f, allocB: float64(allocBytes()-alloc0) / f}
}

// link is a connected pair on the workload's device transport, plus the
// listener it came from for timing a dial.
type link struct {
	a, b   transport.Conn
	dial   func() (transport.Conn, error)
	l      transport.Listener
	got    chan struct{}
	closed chan struct{}
}

func newLink(tcp bool) (*link, error) {
	k := &link{got: make(chan struct{}), closed: make(chan struct{})}
	var err error
	if tcp {
		if k.l, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			return nil, err
		}
		addr := k.l.Addr()
		k.dial = func() (transport.Conn, error) { return transport.DialTCP(addr) }
	} else {
		mem := transport.NewMemNetwork()
		if k.l, err = mem.Listen("replay"); err != nil {
			return nil, err
		}
		k.dial = func() (transport.Conn, error) { return mem.Dial("replay") }
	}
	if k.a, err = k.dial(); err != nil {
		return nil, err
	}
	if k.b, err = k.l.Accept(); err != nil {
		return nil, err
	}
	// A frame larger than the socket buffers cannot be sent and received
	// from one goroutine, so the far end is drained by its own.
	go func() {
		defer close(k.closed)
		for {
			if _, err := k.b.Recv(); err != nil {
				return
			}
			k.got <- struct{}{}
		}
	}()
	return k, nil
}

// frame sends msg and waits until the far end has received it.
func (k *link) frame(msg interface{}) {
	if err := k.a.Send(msg); err != nil {
		panic(fmt.Sprintf("replay: frame send: %v", err))
	}
	<-k.got
}

func (k *link) dialOnce() {
	c, err := k.dial()
	if err != nil {
		panic(fmt.Sprintf("replay: dial: %v", err))
	}
	s, err := k.l.Accept()
	if err != nil {
		panic(fmt.Sprintf("replay: accept: %v", err))
	}
	c.Close()
	s.Close()
}

func (k *link) close() {
	k.a.Close()
	k.b.Close()
	k.l.Close()
	<-k.closed
}

// peerLink is a remote.Peer dialed into a remote.Session over loopback TCP,
// the shard→coordinator link of the sharded topology.
type peerLink struct {
	peer     *remote.Peer
	sess     *remote.Session
	l        transport.Listener
	atSess   chan struct{}
	atPeer   chan struct{}
	registry *remote.Registry
	sys      *actor.System
}

func newPeerLink() (*peerLink, error) {
	k := &peerLink{atSess: make(chan struct{}, 1), atPeer: make(chan struct{}, 1), registry: remote.NewRegistry(), sys: actor.NewSystem()}
	var err error
	if k.l, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	k.registry.Register("sink", k.sys.Spawn("sink", actor.BehaviorFunc(func(*actor.Context, actor.Message) { k.atSess <- struct{}{} })))
	addr := k.l.Addr()
	k.peer = remote.NewPeer("replay", func() (transport.Conn, error) { return transport.DialTCP(addr) },
		func(interface{}) { k.atPeer <- struct{}{} }, remote.Options{})
	conn, err := k.l.Accept()
	if err != nil {
		return nil, err
	}
	k.sess = remote.NewSession(conn, remote.SessionOptions{Registry: k.registry, Handle: func(interface{}) { k.atSess <- struct{}{} }})
	go k.sess.Run()
	for wait := 0; !k.peer.Alive(); wait++ {
		if wait > 2000 {
			return nil, fmt.Errorf("replay: peer link did not come up")
		}
		time.Sleep(time.Millisecond)
	}
	return k, nil
}

func (k *peerLink) close() {
	k.peer.Close()
	k.sess.Close()
	k.l.Close()
	k.sys.Shutdown()
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("replay: %v", err))
	}
}

// replay is the set of layer operations of one workload, ready to time.
type replay struct {
	ops     []*layerOp
	closers []func()
}

func (r *replay) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// replayLayers times every layer a round of w crosses, in isolation on one
// goroutine, at the workload's message shapes. sessions and rejects are
// the per-round counts the traced run observed.
func replayLayers(w workload, seed uint64, sessions, rejects float64) ([]*layerOp, error) {
	r, err := replayOps(w, seed, sessions, rejects)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for _, op := range r.ops {
		op.cost = timeOp(op.run)
	}
	return r.ops, nil
}

// replayOps builds the operations: the workload's real plan, checkpoint and
// update bytes, a connected pair on its device transport, a peer link.
func replayOps(w workload, seed uint64, sessions, rejects float64) (r *replay, err error) {
	r = &replay{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	p, err := w.plan()
	if err != nil {
		return nil, err
	}
	planBytes, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	global := initialCheckpoint(seed, w.Dim)
	ckptBytes, err := global.Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		return nil, err
	}
	update, err := marshalUpdate(seed, 0, w.Dim, w.Encoding)
	if err != nil {
		return nil, err
	}
	dev, err := newLink(w.TCP)
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, dev.close)

	secure := w.SecAggGroup > 0
	shards := float64(w.Shards)
	onWire, folded := 0.0, sessions
	if w.TCP {
		onWire = 1
	}
	if secure {
		folded = 0
	}
	add := func(name string, perRound float64, run func(), children ...*layerOp) *layerOp {
		op := &layerOp{name: name, perRound: perRound, run: run, children: children}
		r.ops = append(r.ops, op)
		return op
	}

	// --- device link: codec, frames, dials ---
	// The accepted CheckinResponse is marshaled once per round (per shard)
	// and sent pre-framed, so its frame contains a decode but no encode.
	configs := max(shards, 1)
	accepted := protocol.CheckinResponse{Accepted: true, TaskID: taskID, Plan: planBytes, Checkpoint: ckptBytes, ReportDeadline: time.Minute}
	preframed := transport.Encode(accepted)
	messages := []struct {
		msg, wire interface{}
		count     float64
		encodes   float64
	}{
		{protocol.CheckinRequest{DeviceID: "stub-100", Population: population, RuntimeVersion: 3}, nil, sessions + rejects, sessions + rejects},
		{accepted, preframed, sessions, configs},
		{protocol.CheckinResponse{Reason: "come back later", RetryAfter: 300 * time.Millisecond}, nil, rejects, rejects},
		{protocol.ReportRequest{DeviceID: "stub-100", TaskID: taskID, Update: update, Metrics: reportMetrics}, nil, sessions, sessions},
		{protocol.ReportResponse{Accepted: true}, nil, sessions, sessions},
	}
	for _, m := range messages {
		code, parts, ok := protocol.MarshalBinaryParts(m.msg)
		if !ok {
			return nil, fmt.Errorf("replay: %T has no binary codec", m.msg)
		}
		var payload []byte
		for _, part := range parts {
			payload = append(payload, part...)
		}
		// Over MemNetwork messages cross as Go values: the codec never runs.
		enc := add("protocol.encode", m.encodes*onWire, func() { protocol.MarshalBinaryParts(m.msg) })
		dec := add("protocol.decode", m.count*onWire, func() {
			_, err := protocol.UnmarshalBinary(code, payload)
			must(err)
		})
		wire, inFrame := m.wire, []*layerOp{dec}
		if wire == nil {
			wire, inFrame = m.msg, []*layerOp{enc, dec}
		}
		if !w.TCP {
			inFrame = nil
		}
		add("transport.frame_rt", m.count, func() { dev.frame(wire) }, inFrame...)
	}
	add("transport.dial_rt", sessions+rejects, dev.dialOnce)

	// --- ingest: parse, fold, merge ---
	meta, err := checkpoint.ParseMeta(update)
	if err != nil {
		return nil, err
	}
	sum := make(tensor.Vector, w.Dim)
	if secure {
		// The secure path decodes into a buffer for the group instead of
		// folding into a stripe.
		add("checkpoint.parse_fold", sessions, func() {
			m, err := checkpoint.ParseMeta(update)
			must(err)
			must(m.DecodeParams(update, sum))
		})
	} else {
		add("checkpoint.parse_fold", sessions, func() {
			m, err := checkpoint.ParseMeta(update)
			must(err)
			must(m.AccumulateParams(update, sum))
		})
	}
	add("checkpoint.marshal", 1, func() {
		_, err := global.Marshal(checkpoint.EncodingFloat64)
		must(err)
	})
	// The fold itself is checkpoint.parse_fold; this is the stripe's lock,
	// weight and metric bookkeeping around it.
	stripe := fedavg.NewPartial(1)
	add("fedavg.stripe_fold", folded, func() {
		must(stripe.Accumulate(meta.Weight, nil, func(tensor.Vector) error { return nil }))
	})
	stripes := runtime.GOMAXPROCS(0)
	filled := func() []*fedavg.PartialAccumulator {
		out := make([]*fedavg.PartialAccumulator, stripes)
		for i := range out {
			out[i] = fedavg.NewPartial(w.Dim)
			// Mark the stripe used without paying for a fold here: folds
			// are checkpoint.parse_fold's.
			must(out[i].Accumulate(meta.Weight, reportMetrics, func(tensor.Vector) error { return nil }))
		}
		return out
	}
	groups := 1.0
	if secure {
		groups = float64(w.K / w.SecAggGroup)
	}
	// One merge per round: a round's stripes (in-process) or group sums
	// (secure) or shard seals (sharded) into the round accumulator, then
	// average, clone the model and apply.
	add("fedavg.merge", 1, func() {
		acc := fedavg.NewAccumulator(w.Dim)
		switch {
		case w.Shards > 0 || secure:
			for i := 0; i < int(max(shards, groups)); i++ {
				must(acc.AddRaw(sum, updateWeight, 1))
			}
		default:
			for _, st := range filled() {
				s, weight, count, _, _ := st.Drain()
				must(acc.AddRaw(s, weight, count))
			}
		}
		avg, err := acc.Average()
		must(err)
		must(fedavg.Apply(global.Clone().Params, avg))
	})
	// One seal per shard per round: stripes merged and marshaled at the
	// shard, unmarshaled and folded at the coordinator.
	add("fedavg.seal", shards, func() {
		sealed, err := fedavg.SealStripes(filled())
		must(err)
		back, err := fedavg.UnmarshalSum(fedavg.MarshalSum(sealed.Sum))
		must(err)
		sealed.Sum = back
		must(fedavg.NewAccumulator(w.Dim).AddSealed(sealed))
	})

	// --- control plane ---
	sys := actor.NewSystem()
	r.closers = append(r.closers, func() { sys.Shutdown() })
	hopped := make(chan struct{}, 1)
	ref := sys.Spawn("hop", actor.BehaviorFunc(func(*actor.Context, actor.Message) { hopped <- struct{}{} }))
	add("actor.hop", actorHopsPerRound(sessions, rejects), func() {
		must(ref.Send(struct{}{}))
		<-hopped
	})
	add("plan.marshal", 1, func() {
		_, err := p.Marshal()
		must(err)
	})
	// Stub devices never decode the plan; timed for the record.
	add("plan.unmarshal", 0, func() {
		_, err := plan.Unmarshal(planBytes)
		must(err)
	})
	steering, rng, now := pacing.New(pacingWindow), tensor.NewRNG(seed), time.Now()
	add("pacing.suggest", rejects, func() { steering.Suggest(w.Stubs, w.K, now, rng) })

	// --- peer link (sharded only on the round path) ---
	pl, err := newPeerLink()
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, pl.close)
	seal := protocol.StripeSeal{Population: population, TaskID: taskID, Reports: int64(w.K), Weight: updateWeight, Sum: fedavg.MarshalSum(sum)}
	config := protocol.RoundConfig{Population: population, TaskID: taskID, Target: w.K, Admit: w.K, Plan: planBytes, Checkpoint: ckptBytes}
	// Per shard per round: one RoundConfig down, one StripeSeal up.
	add("remote.peer_rt", shards, func() {
		must(pl.sess.Send(config))
		<-pl.atPeer
		must(pl.peer.Send(seal))
		<-pl.atSess
	})
	// Actor envelopes (gob inside a binary frame) carry no round traffic
	// today; timed so a codec change to them has a before and after.
	sink := pl.peer.Ref("sink")
	add("remote.envelope_rt", 0, func() {
		must(sink.Send(protocol.RoundAbort{Population: population, TaskID: taskID}))
		<-pl.atSess
	})

	// --- secure aggregation ---
	n := max(w.SecAggGroup, 2)
	inputs := make(map[int][]float64, n)
	for id := 1; id <= n; id++ {
		inputs[id] = append(roundParams(seed, int64(id), w.Dim), updateWeight)
	}
	secCfg := secagg.Config{N: n, T: p.Server.SecAggThreshold(n), VectorLen: w.Dim + 1}
	perRound := 0.0
	if secure {
		perRound = groups
	}
	add("secagg.group", perRound, func() {
		if !secure {
			return // timing a protocol the round never runs would only cost seconds
		}
		_, err := secagg.RunSchedule(secCfg, inputs, secagg.Schedule{})
		must(err)
	})

	// --- storage ---
	store, err := newBenchStore(global, &traceSwitch{})
	if err != nil {
		return nil, err
	}
	add("storage.put_checkpoint", 1, func() { must(store.PutCheckpoint(global)) })
	return r, nil
}

// layerTotals folds the operations into one line per name: operations per
// round, wall and allocation per operation (weighted by use), and CPU-busy
// milliseconds per round net of contained child operations.
type layerTotal struct {
	name                  string
	ops, ns, allocB, busy float64
}

func layerTotals(ops []*layerOp) []layerTotal {
	var order []string
	byName := map[string]*layerTotal{}
	for _, op := range ops {
		t := byName[op.name]
		if t == nil {
			t = &layerTotal{name: op.name}
			byName[op.name] = t
			order = append(order, op.name)
		}
		self := op.cost.cpuNs
		for _, c := range op.children {
			self -= c.cost.cpuNs
		}
		weight := op.perRound
		if weight == 0 && t.ops == 0 {
			// Not on this workload's round path: report the cost of one
			// operation, attribute nothing.
			t.ns, t.allocB = op.cost.ns, op.cost.allocB
			continue
		}
		t.ns = (t.ns*t.ops + op.cost.ns*weight) / (t.ops + weight)
		t.allocB = (t.allocB*t.ops + op.cost.allocB*weight) / (t.ops + weight)
		t.ops += weight
		t.busy += weight * max(self, 0) / 1e6
	}
	out := make([]layerTotal, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}
