// Package analytics is the observability layer of Sec. 5: device and server
// event logs (free of PII), counters, session-shape visualizations of on-device training rounds (Table 1), and
// the traffic accounting behind Fig. 9.
package analytics

import (
	"sort"
	"sync"
)

// SessionState is one state in a device's training round, logged as an
// event and rendered as a single character in the session shape string
// (Table 1 legend).
type SessionState uint8

// Session states and their visualization characters.
const (
	StateCheckin        SessionState = iota + 1 // '-' FL server checkin
	StateDownloadedPlan                         // 'v' downloaded plan
	StateTrainStarted                           // '[' training started
	StateTrainCompleted                         // ']' training completed
	StateUploadStarted                          // '+' upload started
	StateUploadDone                             // '^' upload completed
	StateUploadRejected                         // '#' upload rejected
	StateError                                  // '*' error
	StateInterrupted                            // '!' interrupted
)

// Rune returns the visualization character.
func (s SessionState) Rune() rune {
	switch s {
	case StateCheckin:
		return '-'
	case StateDownloadedPlan:
		return 'v'
	case StateTrainStarted:
		return '['
	case StateTrainCompleted:
		return ']'
	case StateUploadStarted:
		return '+'
	case StateUploadDone:
		return '^'
	case StateUploadRejected:
		return '#'
	case StateError:
		return '*'
	case StateInterrupted:
		return '!'
	default:
		return '?'
	}
}

// Session accumulates one device round's state transitions.
type Session struct {
	states []SessionState
}

// Log appends a state.
func (s *Session) Log(state SessionState) { s.states = append(s.states, state) }

// Shape renders the visualization string, e.g. "-v[]+^".
func (s *Session) Shape() string {
	out := make([]rune, len(s.states))
	for i, st := range s.states {
		out[i] = st.Rune()
	}
	return string(out)
}

// ShapeCounter aggregates session shapes across devices, the data behind
// Table 1. Safe for concurrent use.
type ShapeCounter struct {
	mu     sync.Mutex
	counts map[string]int
	total  int
}

// NewShapeCounter returns an empty counter.
func NewShapeCounter() *ShapeCounter {
	return &ShapeCounter{counts: make(map[string]int)}
}

// Observe records one completed session.
func (c *ShapeCounter) Observe(shape string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[shape]++
	c.total++
}

// ShapeCount is one row of the Table 1 distribution.
type ShapeCount struct {
	Shape   string
	Count   int
	Percent float64
}

// Distribution returns rows sorted by descending count.
func (c *ShapeCounter) Distribution() []ShapeCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShapeCount, 0, len(c.counts))
	for shape, n := range c.counts {
		pct := 0.0
		if c.total > 0 {
			pct = 100 * float64(n) / float64(c.total)
		}
		out = append(out, ShapeCount{Shape: shape, Count: n, Percent: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}

// Total returns the number of observed sessions.
func (c *ShapeCounter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Counters is a registry of named monotonic counters ("how many devices
// were accepted and rejected per training round, … errors, and so on").
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Add increments a counter.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get reads a counter (0 when absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of every counter.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Traffic tracks server network byte counts by direction (Fig. 9).
type Traffic struct {
	mu       sync.Mutex
	download int64 // server → device
	upload   int64 // device → server
}

// NewTraffic returns zeroed traffic accounting.
func NewTraffic() *Traffic { return &Traffic{} }

// AddDownload records server→device bytes.
func (t *Traffic) AddDownload(n int) {
	t.mu.Lock()
	t.download += int64(n)
	t.mu.Unlock()
}

// AddUpload records device→server bytes.
func (t *Traffic) AddUpload(n int) {
	t.mu.Lock()
	t.upload += int64(n)
	t.mu.Unlock()
}

// Totals returns (download, upload) byte counts.
func (t *Traffic) Totals() (download, upload int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.download, t.upload
}
