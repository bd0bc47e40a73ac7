// Package metrics is the one metrics stack: the metric summarization of
// Sec. 7.4 and the analytics of Sec. 5, for rounds and for the process.
//
// Device reports within a round are condensed into "approximate order
// statistics and moments like mean". Order statistics use the P² streaming
// quantile estimator (Jain & Chlamtac 1985), so the server never stores
// per-device values — consistent with the system's no-per-device-logs
// stance. The same Summary backs the latency series of the process-wide
// Registry (registry.go): atomic counters and gauges that hot paths cache
// and bump, rendered as Prometheus text, expvar-style JSON and the operator
// /dashboard (http.go), plus the round tracer (trace.go).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Quantile is a P² streaming estimator for one quantile.
type Quantile struct {
	p       float64
	n       int
	initial []float64  // first five observations, sorted lazily
	q       [5]float64 // marker heights
	pos     [5]float64 // marker positions
	want    [5]float64 // desired positions
	inc     [5]float64 // desired position increments
}

// NewQuantile returns an estimator for the p-quantile, 0 < p < 1.
func NewQuantile(p float64) (*Quantile, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("metrics: quantile p=%v outside (0,1)", p)
	}
	return &Quantile{p: p}, nil
}

// Add feeds one observation.
func (q *Quantile) Add(x float64) {
	q.n++
	if q.n <= 5 {
		q.initial = append(q.initial, x)
		if q.n == 5 {
			sort.Float64s(q.initial)
			for i := 0; i < 5; i++ {
				q.q[i] = q.initial[i]
				q.pos[i] = float64(i + 1)
			}
			p := q.p
			q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			q.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}

	// Find cell k such that q[k] ≤ x < q[k+1], adjusting extremes.
	var k int
	switch {
	case x < q.q[0]:
		q.q[0] = x
		k = 0
	case x >= q.q[4]:
		q.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.inc[i]
	}

	// Adjust interior markers with parabolic interpolation.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			cand := q.parabolic(i, sign)
			if q.q[i-1] < cand && cand < q.q[i+1] {
				q.q[i] = cand
			} else {
				q.q[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

func (q *Quantile) parabolic(i int, d float64) float64 {
	return q.q[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.q[i+1]-q.q[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.q[i]-q.q[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.q[i] + d*(q.q[j]-q.q[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current estimate. With fewer than five observations it
// falls back to the exact empirical quantile.
func (q *Quantile) Value() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	if q.n <= 5 {
		s := append([]float64(nil), q.initial...)
		sort.Float64s(s)
		idx := int(q.p * float64(len(s)))
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	return q.q[2]
}

// Count returns the number of observations.
func (q *Quantile) Count() int { return q.n }

// Reset returns the estimator to its empty state, keeping the target
// quantile. Pooled summaries reuse their estimators across rounds instead
// of reallocating five-marker state per round.
func (q *Quantile) Reset() {
	q.n = 0
	q.initial = q.initial[:0]
	q.q, q.pos, q.want, q.inc = [5]float64{}, [5]float64{}, [5]float64{}, [5]float64{}
}

// Summary condenses a stream of observations into moments and the standard
// quantile set (P50/P90/P99). Safe for concurrent use.
type Summary struct {
	mu            sync.Mutex
	n             int
	sum, sumSq    float64
	min, max      float64
	p50, p90, p99 *Quantile
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	p50, _ := NewQuantile(0.5)
	p90, _ := NewQuantile(0.9)
	p99, _ := NewQuantile(0.99)
	return &Summary{min: math.Inf(1), max: math.Inf(-1), p50: p50, p90: p90, p99: p99}
}

// ObserveDuration feeds a duration, converted to seconds.
func (s *Summary) ObserveDuration(d time.Duration) { s.Observe(d.Seconds()) }

// Observe feeds one observation.
func (s *Summary) Observe(x float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.sum += x
	s.sumSq += x * x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	s.p50.Add(x)
	s.p90.Add(x)
	s.p99.Add(x)
}

// Snapshot is an immutable view of a Summary, the unit materialized to
// storage with each round's metrics.
type Snapshot struct {
	Count         int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Reset returns the summary to its empty state so it can be pooled and
// reused across rounds.
func (s *Summary) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = 0
	s.sum, s.sumSq = 0, 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
	s.p50.Reset()
	s.p90.Reset()
	s.p99.Reset()
}

// Snapshot returns the current state. An empty summary snapshots as all
// zeros — NOT the internal ±Inf min/max sentinels and NOT NaN, so a
// snapshot is always JSON-encodable (encoding/json rejects NaN/Inf) and a
// pooled-but-unused summary cannot leak ±Inf into a materialized record.
func (s *Summary) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{Count: s.n, Min: s.min, Max: s.max}
	if s.n == 0 {
		return Snapshot{}
	}
	snap.Mean = s.sum / float64(s.n)
	variance := s.sumSq/float64(s.n) - snap.Mean*snap.Mean
	if variance < 0 {
		variance = 0
	}
	snap.Std = math.Sqrt(variance)
	snap.P50 = s.p50.Value()
	snap.P90 = s.p90.Value()
	snap.P99 = s.p99.Value()
	return snap
}

// Materialized is a round's metrics record as written to server storage
// (Sec. 7.4): task name, round number, operational metadata, and named
// metric summaries.
type Materialized struct {
	TaskName string
	Round    int64
	Stats    map[string]Snapshot
}
