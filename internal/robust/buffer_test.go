package robust

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fedavg"
	"repro/internal/tensor"
)

// TestBufferAddDrainRelease: updates and evals land in order, Release puts
// every vector back into the buffer's stock, and the closed window refuses
// late reports with the stripes' one error.
func TestBufferAddDrainRelease(t *testing.T) {
	var stock fedavg.Spares
	b := NewBuffer(3, &stock)
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
	b.Release(updates)
	for i, u := range updates {
		if u.Delta != nil {
			t.Fatalf("update %d still holds its released vector", i)
		}
	}
	// Closed buffer refuses late adds, and the late add's vector goes back.
	err := b.Add("late", 1, nil, func(dst tensor.Vector) error { return nil })
	if !errors.Is(err, fedavg.ErrPartialClosed) {
		t.Fatalf("late add error = %v, want fedavg.ErrPartialClosed", err)
	}
	if !errors.Is(b.AddEval(nil), fedavg.ErrPartialClosed) {
		t.Fatal("late eval must be refused")
	}
	for i := 0; i < 4; i++ {
		if v := stock.Take(3); v[0] != 0 {
			t.Fatalf("stock vector %d came back dirty: %v", i, v)
		}
	}
}

func TestBufferDecodeErrorDiscards(t *testing.T) {
	b := NewBuffer(2, nil)
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

// Stock vectors are handed out zeroed even after recycling: the next
// round's buffer decodes into the very vector the last one released.
func TestBufferPooledVectorsZeroed(t *testing.T) {
	var stock fedavg.Spares
	b := NewBuffer(4, &stock)
	_ = b.Add("d0", 1, nil, func(dst tensor.Vector) error {
		for j := range dst {
			dst[j] = 99
		}
		return nil
	})
	updates, _, _ := b.Drain()
	used := &updates[0].Delta[0]
	b.Release(updates)

	b2 := NewBuffer(4, &stock)
	err := b2.Add("d1", 1, nil, func(dst tensor.Vector) error {
		if &dst[0] != used {
			return errors.New("the second buffer did not reuse the released vector")
		}
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
	var stock fedavg.Spares
	b := NewBuffer(8, &stock)
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
				} else if !errors.Is(err, fedavg.ErrPartialClosed) {
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
	b.Release(updates)
	if got := b.Reports(); got != total {
		t.Fatalf("Reports = %d after the close, want %d", got, total)
	}
}

// TestRetainedVectorsSurviveACollection: a secure round's K = 128 updates
// of dim 4 097 go back to the edge's stock at the group's reduce, and two
// collections — which empty a sync.Pool, its victim cache included — leave
// them there: the next round decodes into them and allocates no O(dim)
// vector.
func TestRetainedVectorsSurviveACollection(t *testing.T) {
	const k, dim = 128, 4097
	var stock fedavg.Spares
	round := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := NewBuffer(dim, &stock)
		for i := 0; i < k; i++ {
			if err := b.Add("d", 1, nil, func(dst tensor.Vector) error { dst[i] = 1; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		updates, _, _ := b.Drain()
		b.Release(updates)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	round()
	runtime.GC()
	runtime.GC()
	if got := round(); got >= 8*dim {
		t.Fatalf("the round after two collections allocated %d B, at least one %d-element vector's %d B", got, dim, 8*dim)
	}
}
