package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

const (
	// warmupRounds commit before anything is measured; set-up time runs
	// from the start of the topology build to the last of them.
	warmupRounds = 5
	// setupRepeats is how many times a run sets the workload up; setup_s is
	// the median, and the last set-up is the one that is measured.
	setupRepeats = 5
	// roundTimeout bounds the wait for one commit.
	roundTimeout = 60 * time.Second
)

// commit is what the store's hook samples each time a round commits, so
// any span of commits can be turned into rates afterwards.
type commit struct {
	round   int64
	at      time.Time
	cpu     int64 // process CPU nanoseconds so far
	alloc   uint64
	rejects int64
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// env is one set-up of a workload: store, topology and running stubs.
type env struct {
	w     workload
	seed  uint64
	store *benchStore
	topo  *topology
	gen   *generator
	trace *traceSwitch
	built time.Time

	mu      sync.Mutex
	commits []commit
	err     error
	notify  chan struct{}
}

// setUp builds the topology, starts the stubs and waits for the warm-up
// rounds. It returns the set-up time in seconds.
func setUp(w workload, seed uint64) (*env, float64, error) {
	e := &env{w: w, seed: seed, trace: &traceSwitch{}, built: time.Now(), notify: make(chan struct{}, 1)}
	var err error
	if e.store, err = newBenchStore(initialCheckpoint(seed, w.Dim), e.trace); err != nil {
		return nil, 0, err
	}
	e.store.onCommit = e.onCommit
	e.gen = newGenerator(w, seed, e.trace)
	if e.topo, err = w.build(e.store, seed); err != nil {
		return nil, 0, err
	}
	e.gen.start(e.topo.dials)
	if err := e.waitCommits(warmupRounds); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, e.commitAt(warmupRounds - 1).at.Sub(e.built).Seconds(), nil
}

func (e *env) onCommit(round int64, at time.Time) {
	c := commit{round: round, at: at, cpu: cpuNanos(), alloc: allocBytes(), rejects: e.gen.rejects.Load()}
	e.mu.Lock()
	if want := int64(len(e.commits)) + 1; round != want && e.err == nil {
		e.err = fmt.Errorf("commit %d carries round %d: lineage has a gap or a repeat", want, round)
	}
	e.commits = append(e.commits, c)
	e.mu.Unlock()
	e.gen.noteCommit(round)
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

func (e *env) commitCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.commits)
}

func (e *env) commitAt(i int) commit {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commits[i]
}

// waitCommits blocks until n rounds have committed.
func (e *env) waitCommits(n int) error {
	timeout := time.NewTimer(roundTimeout)
	defer timeout.Stop()
	for e.commitCount() < n {
		select {
		case <-e.notify:
			timeout.Reset(roundTimeout)
		case <-timeout.C:
			return fmt.Errorf("%s: no commit within %v (have %d, want %d): %v", e.w.Name, roundTimeout, e.commitCount(), n, e.gen.firstErr())
		}
	}
	return nil
}

// measure lets rounds run for at least d past the newest commit and
// returns the first and last commit index of that window.
func (e *env) measure(d time.Duration) (first, last int, err error) {
	first = e.commitCount() - 1
	time.Sleep(time.Until(e.commitAt(first).at.Add(d)))
	last = e.commitCount()
	if err := e.waitCommits(last + 1); err != nil {
		return first, last, err
	}
	// The server sent the window's last acks before it committed, but a
	// stub may not have read its ack yet; closing now would cut it off.
	served := e.commitAt(last).round - 1
	for wait := 0; wait < 2000 && !e.gen.settled(served); wait++ {
		time.Sleep(time.Millisecond)
	}
	return first, last, nil
}

// settled reports whether every session of the round has seen its ack.
func (g *generator) settled(round int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	rec := g.rounds[round]
	return rec != nil && rec.acked == rec.sessions
}

// close stops the stubs, then the server, and returns the final state the
// correctness gate needs.
func (e *env) close() (failedRounds int, upstream int64, err error) {
	e.gen.close()
	failedRounds, upstream, err = e.topo.stats()
	e.topo.close()
	return failedRounds, upstream, err
}

func (g *generator) firstErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// windowParts is how many consecutive parts a window's rates are taken
// over. Rounds per second, CPU and allocation per round are the median of
// the parts, so a disturbance shorter than half the window (another tenant
// of the host, mostly) does not move them.
const windowParts = 5

// window is the end-to-end view of commits[first..last].
type window struct {
	rounds     int
	seconds    float64
	interval   []float64 // sorted ms between consecutive commits
	acks       []float64 // sorted report→ack ms
	roundsPerS float64
	cpuMs      float64 // per round
	allocMB    float64 // per round
	down, up   float64 // device-link payload bytes per round
	rejects    float64 // per round
	sessions   int
	unacked    int
	cuts       map[int64]cutPoints
}

func (e *env) window(first, last int) window {
	e.mu.Lock()
	cs := append([]commit(nil), e.commits[first:last+1]...)
	e.mu.Unlock()
	a, b := cs[0], cs[len(cs)-1]
	w := window{rounds: len(cs) - 1, seconds: b.at.Sub(a.at).Seconds(), cuts: make(map[int64]cutPoints)}
	n := float64(w.rounds)
	for i := 1; i < len(cs); i++ {
		w.interval = append(w.interval, float64(cs[i].at.Sub(cs[i-1].at).Nanoseconds())/1e6)
	}
	sort.Float64s(w.interval)
	var rate, cpu, alloc []float64
	parts := min(windowParts, w.rounds)
	for part := 0; part < parts; part++ {
		p, q := cs[part*w.rounds/parts], cs[(part+1)*w.rounds/parts]
		pn := float64(q.round - p.round)
		rate = append(rate, pn/q.at.Sub(p.at).Seconds())
		cpu = append(cpu, float64(q.cpu-p.cpu)/1e6/pn)
		alloc = append(alloc, float64(q.alloc-p.alloc)/(1<<20)/pn)
	}
	w.roundsPerS, w.cpuMs, w.allocMB = median(rate), median(cpu), median(alloc)
	w.rejects = float64(b.rejects-a.rejects) / n

	// The round that commits cs[i].round served checkpoint cs[i].round-1.
	e.gen.mu.Lock()
	defer e.gen.mu.Unlock()
	var down, up int64
	for i := 1; i < len(cs); i++ {
		rec := e.gen.rounds[cs[i].round-1]
		if rec == nil {
			w.unacked++ // a commit no stub took part in cannot be right
			continue
		}
		w.sessions += rec.sessions
		w.unacked += rec.sessions - rec.acked
		down, up = down+rec.down, up+rec.up
		w.cuts[cs[i].round-1] = cuts(cs[i-1].at, rec, cs[i].at)
	}
	w.down, w.up = float64(down)/n, float64(up)/n
	for _, s := range e.gen.acks {
		if s.round >= a.round && s.round < b.round {
			w.acks = append(w.acks, s.ms)
		}
	}
	sort.Float64s(w.acks)
	return w
}
