package chaos

import (
	"fmt"
	"sync"
	"time"
)

// Fault names every injected fault kind — the chaos vocabulary. They appear
// in trace events, scenario fault counts, and the DESIGN.md failure-mode
// matrix.
const (
	FaultDrop          = "drop"           // message silently discarded
	FaultDelay         = "delay"          // message deferred by delay+jitter
	FaultDuplicate     = "duplicate"      // message delivered twice
	FaultCorrupt       = "corrupt"        // payload structurally damaged
	FaultBandwidth     = "bandwidth"      // delivery deferred by the byte-rate cap
	FaultReset         = "reset"          // connection torn down mid-stream
	FaultPartition     = "partition"      // send black-holed inside a partition window
	FaultPartitionRecv = "partition-recv" // inbound message discarded inside a window
	FaultQueueFull     = "queue-full"     // bounded delay queue overflowed; message dropped
)

// Event is one recorded fault decision. The reproducible part of an event
// is (Role, Link, Seq, Fault): per-link decisions are a pure function of
// (seed, role, link ordinal, message index), so two runs with the same seed
// produce the same decision at the same index of the same link. Elapsed and
// Msg describe the particular run (scheduling-dependent) and are excluded
// from determinism comparisons.
type Event struct {
	// Elapsed is the wall offset from the injector's start.
	Elapsed time.Duration
	// Role and Link identify the connection (link ordinal within the role).
	Role Role
	Link int
	// Seq is the message index on that link (send index, or receive index
	// for partition-recv events).
	Seq int
	// Msg is the message's Go type (short form).
	Msg string
	// Fault is one of the Fault* constants; Detail carries parameters
	// (e.g. the chosen delay).
	Fault  string
	Detail string
}

// Key is the deterministic identity of the event — equal across runs with
// the same seed whenever the same link processed the same message sequence.
func (e Event) Key() string {
	return fmt.Sprintf("%s/%d#%d:%s", e.Role, e.Link, e.Seq, e.Fault)
}

// String renders one trace line.
func (e Event) String() string {
	s := fmt.Sprintf("%8.3fs %s/%d #%d %s %s", e.Elapsed.Seconds(), e.Role, e.Link, e.Seq, e.Fault, e.Msg)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// traceCap bounds the in-memory trace; faults beyond it still count in
// Counts but drop their event records.
const traceCap = 16384

// Trace accumulates fault events and per-kind totals. Safe for concurrent
// use (every link records into the shared trace).
type Trace struct {
	mu      sync.Mutex
	evs     []Event
	dropped int64
	counts  map[string]int64
}

func newTrace() *Trace {
	return &Trace{counts: make(map[string]int64)}
}

func (t *Trace) record(e Event) {
	t.mu.Lock()
	t.counts[e.Fault]++
	if len(t.evs) < traceCap {
		t.evs = append(t.evs, e)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// events snapshots the recorded events in record order.
func (t *Trace) events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.evs...)
}

// Counts snapshots the per-fault totals (complete even past the event cap).
func (t *Trace) Counts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// Total is the number of faults injected across all kinds.
func (t *Trace) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, v := range t.counts {
		total += v
	}
	return total
}
