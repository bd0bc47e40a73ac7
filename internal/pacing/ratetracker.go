package pacing

import (
	"time"

	"repro/internal/metrics"
)

// obsEstimate mirrors the live population estimate on /metrics.
var obsEstimate = metrics.Default.Gauge("fl_population_estimate")

// RateSample is one source's observed check-in arrivals since its previous
// sample. A source is one Selector actor in the single-process deployment,
// or one selector shard process in the sharded deployment — the tracker
// does not care, it just needs a stable key per sample stream.
type RateSample struct {
	// Source identifies the sample stream (selector name or shard id).
	Source string
	// Count arrivals were observed over Elapsed.
	Count   int64
	Elapsed time.Duration
	// Demand is the selection demand the source most recently steered
	// devices with.
	Demand int
}

// RateTracker aggregates check-in rate samples across many sources into a
// live population estimate: devices reconnect about once per steering
// MeanWait (evaluated at the static estimate they were steered with), so a
// fleet-wide arrival rate λ implies a population of roughly λ × MeanWait;
// an EWMA smooths sampling noise. Only the LATEST sample per source is
// folded — rates sum across the layer, and the demand is the max of the
// current samples (a historical maximum would bias MeanWait low forever
// after one high-demand task).
//
// The tracker is not goroutine-safe: it is owned by a single coordinator
// actor (or the shard coordinator's loop) and fed from its mailbox.
type RateTracker struct {
	steering *Steering
	static   int
	estimate float64
	samples  map[string]RateSample
}

// NewRateTracker returns a tracker seeded at the static configuration
// estimate, which also anchors every MeanWait evaluation (the sources steer
// devices with the static estimate, so inverting their observed rates must
// use the same value).
func NewRateTracker(st *Steering, staticEstimate int) *RateTracker {
	if staticEstimate <= 0 {
		staticEstimate = 1
	}
	return &RateTracker{
		steering: st,
		static:   staticEstimate,
		estimate: float64(staticEstimate),
		samples:  make(map[string]RateSample),
	}
}

// Fold records one source's latest sample and returns the refreshed
// estimate. Samples with non-positive Elapsed are ignored.
func (t *RateTracker) Fold(s RateSample, now time.Time) int {
	if t.steering == nil || s.Elapsed <= 0 {
		return t.Estimate()
	}
	t.samples[s.Source] = s
	var rate float64
	demand := 0
	for _, cur := range t.samples {
		rate += float64(cur.Count) / cur.Elapsed.Seconds()
		if cur.Demand > demand {
			demand = cur.Demand
		}
	}
	mean := t.steering.MeanWait(t.static, demand, now)
	raw := rate * mean.Seconds()
	if raw > 1e9 {
		raw = 1e9
	}
	t.estimate = 0.5*t.estimate + 0.5*raw
	est := t.Estimate()
	obsEstimate.Set(float64(est))
	return est
}

// Estimate returns the current live population estimate, clamped to ≥ 1.
func (t *RateTracker) Estimate() int {
	est := int(t.estimate)
	if est < 1 {
		est = 1
	}
	return est
}
