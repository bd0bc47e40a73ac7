package main

import (
	"fmt"
	"time"
)

// layerNames are the "<layer>.<op>" operations the replay reports; every
// workload emits all of them (zero busy time where its round never
// performs the operation).
var layerNames = []string{
	"protocol.encode", "protocol.decode", "transport.frame_rt", "transport.dial_rt",
	"checkpoint.parse_fold", "checkpoint.marshal", "fedavg.stripe_fold", "fedavg.merge", "fedavg.seal",
	"actor.hop", "plan.marshal", "plan.unmarshal", "pacing.suggest",
	"remote.peer_rt", "remote.envelope_rt", "secagg.group", "storage.put_checkpoint",
}

// perLayerNames lists, in BENCHMARK.json's order, every metric a traced
// run's last line carries.
func perLayerNames() []string {
	var names []string
	for _, phase := range phaseNames {
		names = append(names, phase+"_ms")
	}
	for _, layer := range layerNames {
		names = append(names, layer+"_busy_ms_per_round")
	}
	return append(names, "driver.self_ms_per_round", "trace_overhead_frac", "unattributed_frac")
}

// runTraced is the layer-resolved run: one set-up, half the window with
// tracing off and half with it on (their difference is the tracing
// overhead), then every layer replayed in isolation.
func runTraced(w workload, seed uint64, d time.Duration, traceOut string, rec *record) error {
	e, setup, err := setUp(w, seed)
	if err != nil {
		return err
	}
	var f0, l0, f1, l1 int
	tr := &tracer{}
	err = func() (err error) {
		if f0, l0, err = e.measure(d / 2); err != nil {
			return err
		}
		tr.epoch = time.Now()
		e.trace.cur.Store(tr)
		defer e.trace.cur.Store(nil)
		// The round in flight is only partly traced; start after it commits.
		if err := e.waitCommits(e.commitCount() + 1); err != nil {
			return err
		}
		f1, l1, err = e.measure(d / 2)
		return err
	}()
	fin, ferr := e.finish()
	if err != nil {
		return err
	}
	plain, traced := e.window(f0, l0), e.window(f1, l1)
	traced.report(rec, fin)
	rec.EndToEnd.set("setup_s", setup, "s")
	rec.Samples["setup_s"] = 1
	if ferr != nil {
		return ferr
	}

	pl := metricSet{}
	rec.PerLayer = pl
	self := tr.finish(traced.cuts)
	for p, name := range phaseNames {
		var ms []float64
		for _, c := range traced.cuts {
			ms = append(ms, float64(c[p+1].Sub(c[p]).Nanoseconds())/1e6)
		}
		pl.set(name+"_ms", median(ms), "ms")
		rec.Diagnostics.set(name+"_self_ms", median(self[name]), "ms")
	}
	// The phases of every round must add up to the round.
	for round, c := range traced.cuts {
		var sum time.Duration
		for p := range phaseNames {
			sum += c[p+1].Sub(c[p])
		}
		if whole := c[5].Sub(c[0]); sum < whole-whole/100 || sum > whole+whole/100 {
			return fmt.Errorf("round %d: phases sum to %v, round took %v", round, sum, whole)
		}
	}
	plainRate, tracedRate := plain.roundsPerS, traced.roundsPerS
	pl.set("trace_overhead_frac", 1-tracedRate/plainRate, "frac")
	rec.Diagnostics.set("untraced_rounds_per_s", plainRate, "1/s")
	rec.Samples["spans"] = len(tr.spans)
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return err
		}
	}

	sessions := float64(traced.sessions) / float64(traced.rounds)
	ops, err := replayLayers(w, seed, sessions, traced.rejects)
	if err != nil {
		return err
	}
	attributed := fin.driverSelfMs
	for _, t := range layerTotals(ops) {
		pl.set(t.name+"_busy_ms_per_round", t.busy, "ms")
		rec.Diagnostics.set(t.name+"_ns", t.ns, "ns")
		rec.Diagnostics.set(t.name+"_alloc_b_per_op", t.allocB, "B")
		rec.Diagnostics.set(t.name+"_ops_per_round", t.ops, "count")
		attributed += t.busy
	}
	pl.set("driver.self_ms_per_round", fin.driverSelfMs, "ms")
	// CPU per round is taken from the untraced half.
	pl.set("unattributed_frac", 1-attributed/plain.cpuMs, "frac")
	rec.Diagnostics.set("untraced_cpu_ms_per_round", plain.cpuMs, "ms")
	return nil
}
