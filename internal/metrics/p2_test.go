package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// p2Tolerance is the documented accuracy contract for the P² estimator on
// the 10k-sample streams below: the estimate must land within this
// fraction of the stream's value RANGE of the exact empirical quantile.
// (Jain & Chlamtac report errors well under 1% of range for smooth
// distributions; bimodal streams stress the parabolic adjustment, so the
// contract is deliberately looser than the typical observed error.)
const p2Tolerance = 0.05

// p2Streams are the distributions the accuracy contract is verified
// against: smooth unimodal (uniform, normal) and a hard bimodal mixture.
var p2Streams = []struct {
	name string
	gen  func(rng *tensor.RNG) float64
}{
	{"uniform", func(rng *tensor.RNG) float64 { return rng.Float64() }},
	{"normal", func(rng *tensor.RNG) float64 { return 10 + 2*rng.NormFloat64() }},
	{"bimodal", func(rng *tensor.RNG) float64 {
		// Two well-separated modes, 70/30 mixture.
		if rng.Float64() < 0.7 {
			return rng.NormFloat64()
		}
		return 50 + 3*rng.NormFloat64()
	}},
}

// TestQuantileAccuracyProperty is the property test behind the Sec. 7.4
// no-per-device-logs stance: for every stream shape and every tracked
// quantile, the streaming estimate must track the exact empirical
// quantile of the same 10k samples within p2Tolerance of the range.
func TestQuantileAccuracyProperty(t *testing.T) {
	const n = 10000
	for _, stream := range p2Streams {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, p := range []float64{0.5, 0.9, 0.99} {
				rng := tensor.NewRNG(seed * 7919)
				q, err := NewQuantile(p)
				if err != nil {
					t.Fatal(err)
				}
				all := make([]float64, 0, n)
				for i := 0; i < n; i++ {
					x := stream.gen(rng)
					q.Add(x)
					all = append(all, x)
				}
				sort.Float64s(all)
				exact := all[int(p*float64(n))]
				span := all[n-1] - all[0]
				if got := q.Value(); math.Abs(got-exact) > p2Tolerance*span {
					t.Errorf("%s seed=%d p=%v: estimate %v vs exact %v (range %v, tolerance %v)",
						stream.name, seed, p, got, exact, span, p2Tolerance*span)
				}
			}
		}
	}
}

// TestSummaryAccuracyProperty runs the same contract through Summary's
// P50/P90/P99 plus its exact moments, on each stream shape.
func TestSummaryAccuracyProperty(t *testing.T) {
	const n = 10000
	for _, stream := range p2Streams {
		rng := tensor.NewRNG(42)
		s := NewSummary()
		all := make([]float64, 0, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			x := stream.gen(rng)
			s.Observe(x)
			all = append(all, x)
			sum += x
		}
		sort.Float64s(all)
		span := all[n-1] - all[0]
		snap := s.Snapshot()
		if snap.Count != n {
			t.Fatalf("%s: count %d", stream.name, snap.Count)
		}
		if math.Abs(snap.Mean-sum/n) > 1e-9*math.Abs(sum/n)+1e-12 {
			t.Errorf("%s: mean %v, want %v", stream.name, snap.Mean, sum/n)
		}
		if snap.Min != all[0] || snap.Max != all[n-1] {
			t.Errorf("%s: min/max %v/%v, want %v/%v", stream.name, snap.Min, snap.Max, all[0], all[n-1])
		}
		for _, pq := range []struct {
			p   float64
			got float64
		}{{0.5, snap.P50}, {0.9, snap.P90}, {0.99, snap.P99}} {
			exact := all[int(pq.p*float64(n))]
			if math.Abs(pq.got-exact) > p2Tolerance*span {
				t.Errorf("%s p=%v: estimate %v vs exact %v (tolerance %v)",
					stream.name, pq.p, pq.got, exact, p2Tolerance*span)
			}
		}
	}
}

// TestSummaryConcurrentSnapshotReset exercises Observe racing Snapshot and
// Reset under -race: the metrics registry snapshots live summaries while hot
// paths keep observing into them.
func TestSummaryConcurrentSnapshotReset(t *testing.T) {
	s := NewSummary()
	var wg sync.WaitGroup
	stop, resetDone := make(chan struct{}), make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed)
			for i := 0; i < 2000; i++ {
				s.Observe(rng.Float64())
			}
		}(uint64(w + 1))
	}
	go func() {
		defer close(resetDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.Snapshot()
			if snap.Count == 0 && snap != (Snapshot{}) {
				t.Error("empty snapshot not zeroed")
				return
			}
			s.Reset()
		}
	}()
	wg.Wait()
	close(stop)
	<-resetDone // a Reset still in flight would empty the check below
	s.Reset()
	s.Observe(1)
	if snap := s.Snapshot(); snap.Count != 1 || snap.Min != 1 || snap.Max != 1 {
		t.Fatalf("summary unusable after concurrent reset: %+v", snap)
	}
}
