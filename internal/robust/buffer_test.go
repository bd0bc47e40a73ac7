package robust

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func TestBufferAddDrainRelease(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 4; i++ {
		i := i
		err := b.Add(fmt.Sprintf("d%d", i), float64(i+1), map[string]float64{"loss": float64(i)},
			func(dst tensor.Vector) error {
				for j := range dst {
					dst[j] = float64(i)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEval(map[string]float64{"acc": 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := b.Reports(); got != 5 {
		t.Fatalf("Reports = %d, want 5", got)
	}
	updates, evalCount, metrics := b.Drain()
	if len(updates) != 4 || evalCount != 1 {
		t.Fatalf("Drain: %d updates, %d evals", len(updates), evalCount)
	}
	if len(metrics["loss"]) != 4 || len(metrics["acc"]) != 1 {
		t.Fatalf("metrics: %v", metrics)
	}
	for i, u := range updates {
		if u.Delta[0] != float64(i) || u.Weight != float64(i+1) {
			t.Fatalf("update %d: %+v", i, u)
		}
	}
	Release(updates)
	// Closed buffer refuses late adds.
	err := b.Add("late", 1, nil, func(dst tensor.Vector) error { return nil })
	if !errors.Is(err, ErrBufferClosed) {
		t.Fatalf("late add error = %v, want ErrBufferClosed", err)
	}
	if !errors.Is(b.AddEval(nil), ErrBufferClosed) {
		t.Fatal("late eval must be refused")
	}
}

func TestBufferDecodeErrorDiscards(t *testing.T) {
	b := NewBuffer(2)
	boom := errors.New("boom")
	if err := b.Add("d", 1, nil, func(tensor.Vector) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want decode error surfaced", err)
	}
	if b.Reports() != 0 {
		t.Fatal("failed decode must not be buffered")
	}
	for _, w := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := b.Add("w", w, nil, func(tensor.Vector) error { return nil }); err == nil {
			t.Fatalf("weight %v must be refused", w)
		}
	}
}

// Pooled decode buffers are handed out zeroed even after recycling.
func TestBufferPooledVectorsZeroed(t *testing.T) {
	b := NewBuffer(4)
	_ = b.Add("d0", 1, nil, func(dst tensor.Vector) error {
		for j := range dst {
			dst[j] = 99
		}
		return nil
	})
	updates, _, _ := b.Drain()
	Release(updates)

	b2 := NewBuffer(4)
	err := b2.Add("d1", 1, nil, func(dst tensor.Vector) error {
		for j, v := range dst {
			if v != 0 {
				return fmt.Errorf("recycled buffer not zeroed at %d: %v", j, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Many goroutines adding while the buffer closes: no lost updates before
// the close, every add after it refused, no races (run with -race).
func TestBufferConcurrentAddsAndClose(t *testing.T) {
	b := NewBuffer(8)
	const goroutines = 16
	var wg sync.WaitGroup
	accepted := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := b.Add(fmt.Sprintf("g%d-%d", g, i), 1, nil, func(dst tensor.Vector) error {
					dst[0] = float64(i)
					return nil
				})
				if err == nil {
					accepted[g]++
				} else if !errors.Is(err, ErrBufferClosed) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	b.Close()
	wg.Wait()
	updates, _, _ := b.Drain()
	total := 0
	for _, n := range accepted {
		total += n
	}
	if len(updates) != total {
		t.Fatalf("drained %d updates, %d adds accepted", len(updates), total)
	}
	Release(updates)
}
