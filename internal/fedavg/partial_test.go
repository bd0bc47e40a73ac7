package fedavg

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestPartialConcurrentFoldsMatchSerial: many goroutines folding into a
// striped set of partials must merge to exactly what a serial Accumulator
// computes (the folds here are exact float adds of integer-valued deltas,
// so even summation order cannot perturb the result). Run under -race in
// CI: the stripe lock is what makes the concurrent folds safe.
func TestPartialConcurrentFoldsMatchSerial(t *testing.T) {
	const dim, devices, stripes = 64, 200, 4
	parts := make([]*PartialAccumulator, stripes)
	for i := range parts {
		parts[i] = NewPartial(dim)
	}
	delta := func(i int) tensor.Vector {
		d := make(tensor.Vector, dim)
		for j := range d {
			d[j] = float64((i % 5) + j%3)
		}
		return d
	}
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := delta(i)
			err := parts[i%stripes].Accumulate(float64(1+i%3), map[string]float64{"loss": float64(i)},
				func(sum tensor.Vector) error {
					sum.Axpy(1, d)
					return nil
				})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	merged := NewAccumulator(dim)
	metricCount := 0
	for _, p := range parts {
		sum, weight, count, evalCount, metrics := p.Drain()
		if count > 0 {
			if err := merged.AddRaw(sum, weight, count); err != nil {
				t.Fatal(err)
			}
		}
		if evalCount != 0 {
			t.Fatalf("unexpected eval count %d", evalCount)
		}
		metricCount += len(metrics["loss"])
	}

	ref := NewAccumulator(dim)
	for i := 0; i < devices; i++ {
		if err := ref.Add(&Update{Delta: delta(i), Weight: float64(1 + i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != ref.Count() || merged.Weight() != ref.Weight() {
		t.Fatalf("count/weight: %d/%v vs %d/%v", merged.Count(), merged.Weight(), ref.Count(), ref.Weight())
	}
	got, _ := merged.Average()
	want, _ := ref.Average()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("avg[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if metricCount != devices {
		t.Fatalf("metrics folded %d, want %d", metricCount, devices)
	}
}

// TestPartialClosedRefusesFolds: once closed (or drained), folds and eval
// adds must return ErrPartialClosed and leave nothing behind — the window
// race a reader can lose against finalization.
func TestPartialClosedRefusesFolds(t *testing.T) {
	p := NewPartial(2)
	if err := p.Accumulate(1, nil, func(sum tensor.Vector) error { sum[0] += 5; return nil }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	err := p.Accumulate(1, nil, func(sum tensor.Vector) error { sum[0] += 100; return nil })
	if !errors.Is(err, ErrPartialClosed) {
		t.Fatalf("fold after close: %v", err)
	}
	if !errors.Is(p.AddEval(map[string]float64{"a": 1}), ErrPartialClosed) {
		t.Fatal("eval add after close must be refused")
	}
	sum, weight, count, evalCount, _ := p.Drain()
	if sum[0] != 5 || weight != 1 || count != 1 || evalCount != 0 {
		t.Fatalf("late fold leaked in: sum=%v weight=%v count=%d eval=%d", sum, weight, count, evalCount)
	}
}

// TestPartialRejectsBadFolds: non-positive and non-finite weights are refused before the
// fold runs, and a failing fold must not advance weight or count.
func TestPartialRejectsBadFolds(t *testing.T) {
	p := NewPartial(2)
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := p.Accumulate(w, nil, func(tensor.Vector) error { t.Fatal("fold ran"); return nil }); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if err := p.Accumulate(1, nil, func(tensor.Vector) error { return errors.New("boom") }); err == nil {
		t.Fatal("failing fold accepted")
	}
	_, weight, count, _, _ := p.Drain()
	if weight != 0 || count != 0 {
		t.Fatalf("failed folds counted: weight=%v count=%d", weight, count)
	}
}

// TestPartialEvalOnly: metrics-only folds count separately and merge clean.
func TestPartialEvalOnly(t *testing.T) {
	p := NewPartial(3)
	for i := 0; i < 4; i++ {
		if err := p.AddEval(map[string]float64{"acc": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, weight, count, evalCount, metrics := p.Drain()
	if weight != 0 || count != 0 || evalCount != 4 || len(metrics["acc"]) != 4 {
		t.Fatalf("eval drain: weight=%v count=%d eval=%d metrics=%v", weight, count, evalCount, metrics)
	}
}
