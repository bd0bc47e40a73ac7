package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func TestQuantileRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		if _, err := NewQuantile(p); err == nil {
			t.Errorf("NewQuantile(%v) should fail", p)
		}
	}
}

func TestQuantileExactSmallN(t *testing.T) {
	q, _ := NewQuantile(0.5)
	if !math.IsNaN(q.Value()) {
		t.Fatal("empty estimator should be NaN")
	}
	for _, x := range []float64{5, 1, 3} {
		q.Add(x)
	}
	if q.Value() != 3 {
		t.Fatalf("median of {1,3,5} = %v, want 3", q.Value())
	}
	if q.Count() != 3 {
		t.Fatalf("Count = %d", q.Count())
	}
}

func TestQuantileAccuracyUniform(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q, _ := NewQuantile(p)
		var all []float64
		for i := 0; i < 20000; i++ {
			x := rng.Float64()
			q.Add(x)
			all = append(all, x)
		}
		sort.Float64s(all)
		exact := all[int(p*float64(len(all)))]
		if math.Abs(q.Value()-exact) > 0.02 {
			t.Fatalf("p=%v: estimate %v vs exact %v", p, q.Value(), exact)
		}
	}
}

func TestQuantileAccuracyNormal(t *testing.T) {
	rng := tensor.NewRNG(2)
	q, _ := NewQuantile(0.9)
	for i := 0; i < 30000; i++ {
		q.Add(rng.NormFloat64())
	}
	// Standard normal 0.9 quantile ≈ 1.2816.
	if math.Abs(q.Value()-1.2816) > 0.08 {
		t.Fatalf("normal P90 estimate %v, want ≈ 1.2816", q.Value())
	}
}

func TestQuantileMonotoneSequence(t *testing.T) {
	q, _ := NewQuantile(0.5)
	for i := 1; i <= 1001; i++ {
		q.Add(float64(i))
	}
	if math.Abs(q.Value()-501) > 10 {
		t.Fatalf("median of 1..1001 estimated %v", q.Value())
	}
}

func TestSummaryMoments(t *testing.T) {
	s := NewSummary()
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	snap := s.Snapshot()
	if snap.Count != 8 || snap.Mean != 5 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if math.Abs(snap.Std-2) > 1e-9 {
		t.Fatalf("std = %v, want 2", snap.Std)
	}
	if snap.Min != 2 || snap.Max != 9 {
		t.Fatalf("min/max: %+v", snap)
	}
}

func TestSummaryEmpty(t *testing.T) {
	// An empty summary snapshots as all zeros: the internal ±Inf min/max
	// sentinels must not leak (they would poison JSON encoding of pooled
	// round-trace summaries).
	snap := NewSummary().Snapshot()
	if snap != (Snapshot{}) {
		t.Fatalf("empty snapshot: %+v, want zero value", snap)
	}
}

func TestSummaryReset(t *testing.T) {
	s := NewSummary()
	for i := 0; i < 100; i++ {
		s.Observe(float64(i))
	}
	s.Reset()
	if snap := s.Snapshot(); snap != (Snapshot{}) {
		t.Fatalf("snapshot after Reset: %+v, want zero value", snap)
	}
	// A reset summary must behave exactly like a fresh one.
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	snap := s.Snapshot()
	if snap.Count != 8 || snap.Mean != 5 || snap.Min != 2 || snap.Max != 9 {
		t.Fatalf("snapshot after Reset+Add: %+v", snap)
	}
}

func TestSummaryConcurrent(t *testing.T) {
	s := NewSummary()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed)
			for i := 0; i < 1000; i++ {
				s.Observe(rng.Float64())
			}
		}(uint64(w))
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Count != 8000 {
		t.Fatalf("count = %d, want 8000", snap.Count)
	}
	if snap.Mean < 0.45 || snap.Mean > 0.55 {
		t.Fatalf("mean of uniforms = %v", snap.Mean)
	}
}

func TestSummaryQuantilesOrdered(t *testing.T) {
	s := NewSummary()
	rng := tensor.NewRNG(5)
	for i := 0; i < 5000; i++ {
		s.Observe(rng.ExpFloat64())
	}
	snap := s.Snapshot()
	if !(snap.Min <= snap.P50 && snap.P50 <= snap.P90 && snap.P90 <= snap.P99 && snap.P99 <= snap.Max) {
		t.Fatalf("quantiles not ordered: %+v", snap)
	}
}
