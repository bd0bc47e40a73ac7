package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one round share its number; Parent
// names the span that caused it ("" for a round).
type span struct {
	Name    string `json:"name"`
	Msg     string `json:"msg,omitempty"`
	Round   int64  `json:"round"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.StartNs, s.EndNs} }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name, msg string, round int64, start, end time.Time) {
	s := span{Name: name, Msg: msg, Round: round, StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// traceSwitch lets the stubs and the store record spans only while a tracer
// is installed, so the same topology can be measured with tracing off and
// then on.
type traceSwitch struct{ cur atomic.Pointer[tracer] }

func (s *traceSwitch) span(name, msg string, round int64, start, end time.Time) {
	if t := s.cur.Load(); t != nil {
		t.add(name, msg, round, start, end)
	}
}

// The five phases cut a round's timeline at stub- and store-observed
// events, each phase ending where the next begins, so they sum to the round.
var phaseNames = []string{"phase.turnaround", "phase.select", "phase.configure", "phase.report", "phase.commit"}

// cutPoints are the six instants that bound a round's five phases.
type cutPoints [6]time.Time

// cuts orders a round's events on its timeline: previous commit, first
// check-in sent that the round accepted, first and last accepted
// CheckinResponse received, last ack received, commit. Each is clamped to
// its predecessor and to the commit, so no phase is negative: a check-in
// sent just before the previous commit can be the first the new round
// accepts, and a stub scheduled late can see its ack after the commit.
func cuts(prevCommit time.Time, rec *roundRec, commit time.Time) cutPoints {
	c := cutPoints{prevCommit, rec.firstSent, rec.firstAccept, rec.lastAccept, rec.lastAck, commit}
	for i := 1; i < len(c)-1; i++ {
		if c[i].Before(c[i-1]) {
			c[i] = c[i-1]
		}
		if c[i].After(commit) {
			c[i] = commit
		}
	}
	return c
}

// finish closes the trace: spans of rounds outside `rounds` (warm-up, the
// round cut off by the end of the run) are dropped, every other recorded
// span gets the phase it started in as its parent, and each round gains its
// round and phase spans. It returns each phase's self time per round in
// milliseconds: the phase minus the part its send and storage children
// cover. Recv children are left out because a Recv includes the wait for
// the peer.
func (t *tracer) finish(rounds map[int64]cutPoints) map[string][]float64 {
	ns := func(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		round int64
		phase int
	}
	children := map[key][]interval{}
	kept := t.spans[:0]
	for _, s := range t.spans {
		c, ok := rounds[s.Round]
		if !ok {
			continue
		}
		phase := 0
		for p := len(phaseNames) - 1; p > 0; p-- {
			if s.StartNs >= ns(c[p]) {
				phase = p
				break
			}
		}
		s.Parent = phaseNames[phase]
		if s.Name != "transport.recv" {
			children[key{s.Round, phase}] = append(children[key{s.Round, phase}], s.interval())
		}
		kept = append(kept, s)
	}
	t.spans = kept
	self := map[string][]float64{}
	for round, c := range rounds {
		t.spans = append(t.spans, span{Name: "round", Round: round, StartNs: ns(c[0]), EndNs: ns(c[5])})
		for p, name := range phaseNames {
			ph := span{Name: name, Round: round, Parent: "round", StartNs: ns(c[p]), EndNs: ns(c[p+1])}
			t.spans = append(t.spans, ph)
			self[name] = append(self[name], float64(selfTime(ph.interval(), children[key{round, p}]))/1e6)
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
