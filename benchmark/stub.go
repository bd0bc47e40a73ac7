package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// A rejected stub comes back after the server's RetryAfter clamped to this
// range: the pacing window is a second, and a closed loop that honoured it
// unclamped would measure the hint, not the server. Consecutive rejections
// approach the clamped hint by doubling from minRetry, so a round of a few
// milliseconds is not held open for maxRetry by the stubs acked first,
// while a long round is polled at most every maxRetry.
const (
	minRetry = 2 * time.Millisecond
	maxRetry = 20 * time.Millisecond
)

// retryDelay is the wait after the n-th consecutive rejection (n ≥ 1).
func retryDelay(hint time.Duration, n int) time.Duration {
	return min(minRetry<<min(n-1, 8), max(hint, minRetry), maxRetry)
}

// roundRec is what the stubs saw of the round that serves checkpoint
// `round` (and commits round+1): the events that cut it into phases, and
// the sessions and payload bytes it took.
type roundRec struct {
	firstSent, firstAccept, lastAccept, lastAck time.Time
	sessions, acked                             int
	down, up                                    int64
}

type ackSample struct {
	round int64
	ms    float64
}

// generator is the load: Stubs closed-loop stub devices. A stub speaks
// CheckinRequest → CheckinResponse → ReportRequest → ReportResponse with no
// on-device training. Once acked it checks in again as soon as the round it
// reported to commits: the server admits nobody before that, so an earlier
// check-in would only add a rejection per device per round to the load.
// The commit is the one signal the stubs take from outside the protocol.
type generator struct {
	w     workload
	seed  uint64
	pay   *payloads
	trace *traceSwitch
	// tokens caps how many stubs dial, check in or upload at once at
	// GOMAXPROCS, so parked stubs cost a blocked Recv and the scheduler is
	// not what the benchmark measures.
	tokens chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	rounds map[int64]*roundRec
	acks   []ackSample
	conns  map[int]transport.Conn
	err    error
	// stopped is set before close() sweeps conns, so a stub that dialed
	// concurrently closes its own connection instead of parking on it.
	stopped bool

	// rejects counts pace-steering rejections and aborts at check-in: not
	// failures, but load the generator puts on the accept path.
	rejects atomic.Int64

	// committed is the newest committed round; epoch is closed and replaced
	// each time it advances, waking the stubs that wait for it.
	committed atomic.Int64
	epochMu   sync.Mutex
	epoch     chan struct{}
}

var reportMetrics = map[string]float64{"train_loss": 0.5}

func newGenerator(w workload, seed uint64, trace *traceSwitch) *generator {
	return &generator{
		w: w, seed: seed, pay: newPayloads(seed, w.Dim, w.Encoding), trace: trace,
		tokens: make(chan struct{}, runtime.GOMAXPROCS(0)),
		stop:   make(chan struct{}),
		rounds: make(map[int64]*roundRec),
		conns:  make(map[int]transport.Conn),
		epoch:  make(chan struct{}),
	}
}

// noteCommit wakes the stubs waiting for round to commit. It runs on the
// server's committing goroutine and only closes a channel.
func (g *generator) noteCommit(round int64) {
	g.epochMu.Lock()
	g.committed.Store(round)
	close(g.epoch)
	g.epoch = make(chan struct{})
	g.epochMu.Unlock()
}

// awaitCommit blocks until round has committed and reports whether the
// generator is still running.
func (g *generator) awaitCommit(round int64) bool {
	for {
		g.epochMu.Lock()
		epoch := g.epoch
		g.epochMu.Unlock()
		if g.committed.Load() >= round {
			return true
		}
		select {
		case <-epoch:
		case <-g.stop:
			return false
		}
	}
}

// start launches the stubs against the topology's device listeners.
func (g *generator) start(dials []func() (transport.Conn, error)) {
	jitter := tensor.NewRNG(g.seed).Derive(1 << 40)
	for i := 0; i < g.w.Stubs; i++ {
		// Stub i homes on shard i mod N; its first check-in is jittered
		// over 5 ms so the fleet does not start in lockstep.
		dial, delay := dials[i%len(dials)], time.Duration(jitter.Intn(5000))*time.Microsecond
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			id := fmt.Sprintf("stub-%d", i)
			rejected := 0
			for g.sleep(delay) {
				hint, served, ok := g.session(i, id, dial)
				if ok {
					rejected, delay = 0, 0
					if !g.awaitCommit(served + 1) {
						return
					}
				} else {
					rejected++
					delay = retryDelay(hint, rejected)
				}
			}
		}()
	}
}

// sleep waits d and reports whether the generator is still running.
func (g *generator) sleep(d time.Duration) bool {
	if d <= 0 {
		select {
		case <-g.stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-g.stop:
		return false
	case <-t.C:
		return true
	}
}

func (g *generator) acquire() bool {
	select {
	case g.tokens <- struct{}{}:
		return true
	case <-g.stop:
		return false
	}
}

func (g *generator) release() { <-g.tokens }

func (g *generator) fail(err error) {
	select {
	case <-g.stop:
		return // teardown closes connections under the stubs
	default:
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// session runs one check-in and, when accepted, one report. ok reports an
// acked report to the round serving checkpoint `served`; otherwise hint is
// the server's RetryAfter (zero after an error or an abort).
func (g *generator) session(i int, id string, dial func() (transport.Conn, error)) (hint time.Duration, served int64, ok bool) {
	if !g.acquire() {
		return 0, 0, false
	}
	conn, err := dial()
	if err != nil {
		g.release()
		g.fail(fmt.Errorf("%s: dial: %w", id, err))
		return 0, 0, false
	}
	defer conn.Close()
	g.mu.Lock()
	stopped := g.stopped
	g.conns[i] = conn
	g.mu.Unlock()
	if stopped {
		g.release()
		return 0, 0, false // close() has already swept the connections
	}

	sent := time.Now()
	err = conn.Send(protocol.CheckinRequest{DeviceID: id, Population: population, RuntimeVersion: 3})
	sentDone := time.Now()
	g.release()
	if err != nil {
		g.fail(fmt.Errorf("%s: check-in send: %w", id, err))
		return 0, 0, false
	}
	msg, err := conn.Recv()
	got := time.Now()
	if err != nil {
		g.fail(fmt.Errorf("%s: check-in recv: %w", id, err))
		return 0, 0, false
	}
	resp, ok := msg.(protocol.CheckinResponse)
	if !ok || !resp.Accepted {
		// A pace-steering rejection, or an Abort from a round that sealed
		// while this check-in was in flight: come back later.
		g.rejects.Add(1)
		return resp.RetryAfter, 0, false
	}
	round := resp.Round
	g.trace.span("transport.send", "checkin_request", round, sent, sentDone)
	g.trace.span("transport.recv", "checkin_response", round, sentDone, got)
	g.mu.Lock()
	rec := g.rounds[round]
	if rec == nil {
		rec = &roundRec{firstSent: sent, firstAccept: got}
		g.rounds[round] = rec
	}
	if sent.Before(rec.firstSent) {
		rec.firstSent = sent
	}
	if got.Before(rec.firstAccept) {
		rec.firstAccept = got
	}
	if got.After(rec.lastAccept) {
		rec.lastAccept = got
	}
	rec.sessions++
	rec.down += int64(len(resp.Plan) + len(resp.Checkpoint))
	g.mu.Unlock()

	update, err := g.pay.forRound(round)
	if err != nil {
		g.fail(err)
		return 0, 0, false
	}
	if !g.acquire() {
		return 0, 0, false
	}
	upStart := time.Now()
	err = conn.Send(protocol.ReportRequest{DeviceID: id, TaskID: resp.TaskID, Round: round, Update: update, Metrics: reportMetrics})
	upDone := time.Now()
	g.release()
	if err != nil {
		g.fail(fmt.Errorf("%s: report send: %w", id, err))
		return 0, 0, false
	}
	msg, err = conn.Recv()
	acked := time.Now()
	if ack, ok := msg.(protocol.ReportResponse); err != nil || !ok || !ack.Accepted {
		g.fail(fmt.Errorf("%s: round %d report not acked: %v %v", id, round, msg, err))
		return 0, 0, false
	}
	g.trace.span("transport.send", "report_request", round, upStart, upDone)
	g.trace.span("transport.recv", "report_response", round, upDone, acked)
	g.mu.Lock()
	rec.acked++
	rec.up += int64(len(update))
	if acked.After(rec.lastAck) {
		rec.lastAck = acked
	}
	g.acks = append(g.acks, ackSample{round, float64(acked.Sub(upStart).Nanoseconds()) / 1e6})
	g.mu.Unlock()
	return 0, round, true
}

// close stops the stubs: it closes the connections they are parked on and
// waits until every stub goroutine has returned.
func (g *generator) close() {
	close(g.stop)
	g.mu.Lock()
	g.stopped = true
	for _, c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	g.wg.Wait()
}
