package fedavg

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	if merged.count != ref.count || merged.weight != ref.weight {
		t.Fatalf("count/weight: %d/%v vs %d/%v", merged.count, merged.weight, ref.count, ref.weight)
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

// TestSparesCarryStripesAcrossRounds runs an edge's stock through three
// rounds. Round one allocates every stripe and, at its seal, keeps all but
// the one that became the sealed sum; round two is built over those very
// vectors and finds them zero, with folders racing its seal — a fold either
// lands before the seal (and is in the sealed sum) or gets ErrPartialClosed,
// and none lands in a vector the seal has recycled; a round of another
// dimension drops the spares instead of reusing them.
func TestSparesCarryStripesAcrossRounds(t *testing.T) {
	const dim = 512
	// One stripe per processor, as an edge builds them (the stock holds one
	// round's worth), and at least the two a merge needs.
	stripes := max(2, runtime.GOMAXPROCS(0))
	var stock Spares
	fill := func(v tensor.Vector) error {
		for i := range v {
			v[i]++
		}
		return nil
	}
	// round builds the stripes, reports which vectors they sit on, and folds
	// once into each.
	round := func(dim int) ([]*PartialAccumulator, map[*float64]bool) {
		sts, vecs := make([]*PartialAccumulator, stripes), make(map[*float64]bool)
		for i := range sts {
			sts[i] = stock.NewPartial(dim)
			if err := sts[i].Accumulate(1, nil, func(sum tensor.Vector) error {
				vecs[&sum[0]] = true
				for _, x := range sum {
					if x != 0 {
						t.Errorf("stripe %d starts its round at %v, not zero", i, x)
						break
					}
				}
				return fill(sum)
			}); err != nil {
				t.Fatal(err)
			}
		}
		return sts, vecs
	}

	first, firstVecs := round(dim)
	sealed, err := SealStripes(first)
	if err != nil || sealed.Count != stripes || sealed.Sum[0] != float64(stripes) {
		t.Fatalf("first seal: %+v, %v", sealed, err)
	}
	if len(stock.free) != stripes-1 {
		t.Fatalf("the seal kept %d spares, want the %d stripes it merged away", len(stock.free), stripes-1)
	}

	second, secondVecs := round(dim)
	reused := 0
	for v := range secondVecs {
		if v == &sealed.Sum[0] {
			t.Fatal("the adopted vector — by now a checkpoint — came back as a stripe")
		}
		if firstVecs[v] {
			reused++
		}
	}
	if reused != stripes-1 || len(stock.free) != 0 {
		t.Fatalf("round two reused %d vectors (%d left in stock), want %d and 0", reused, len(stock.free), stripes-1)
	}
	var landed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				switch err := second[g%stripes].Accumulate(1, nil, fill); {
				case err == nil:
					landed.Add(1)
				case errors.Is(err, ErrPartialClosed):
					return
				default:
					t.Error(err)
					return
				}
			}
		}(g)
	}
	sealed2, err := SealStripes(second)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(stripes) + float64(landed.Load()); sealed2.Sum[0] != want || sealed2.Sum[dim-1] != want || sealed2.Count != int(want) {
		t.Fatalf("sealed %v over %d reports; %v folds were acknowledged", sealed2.Sum[0], sealed2.Count, want)
	}
	for _, v := range stock.free {
		for i, x := range v {
			if x != 0 {
				t.Fatalf("a fold racing the seal landed in a recycled stripe: [%d]=%v", i, x)
			}
		}
	}

	third, thirdVecs := round(dim / 2)
	for v := range thirdVecs {
		if secondVecs[v] {
			t.Fatal("a round of another dimension was built over the old round's vector")
		}
	}
	if len(stock.free) != 0 {
		t.Fatalf("%d spares of the old dimension survive the round that could not use them", len(stock.free))
	}
	if sealed3, err := SealStripes(third); err != nil || len(sealed3.Sum) != dim/2 {
		t.Fatalf("third seal: %+v, %v", sealed3, err)
	}
}

// TestSparesFollowDemand: the stock keeps every vector it lent — a secure
// round's 128 updates, far past one round's stripes — and nothing more: a
// giver that never took from it cannot grow it. A vector adopted for good
// (the committed checkpoint) stays out of the stock with its loan open; the
// model it supersedes repays that loan, zeroed, whatever stock it came from,
// and only once; a round that commits nothing repays with its own vector.
func TestSparesFollowDemand(t *testing.T) {
	const k, dim = 128, 16
	var stock Spares
	lent := make([]tensor.Vector, k)
	for i := range lent {
		lent[i] = stock.Take(dim)
	}
	for _, v := range lent {
		stock.Put(v)
	}
	if len(stock.free) != k {
		t.Fatalf("a stock that lent %d vectors kept %d of them", k, len(stock.free))
	}
	stock.Put(make(tensor.Vector, dim))
	var idle Spares
	idle.Put(make(tensor.Vector, dim))
	if len(stock.free) != k || len(idle.free) != 0 {
		t.Fatalf("givers that never took grew the stocks to %d and %d", len(stock.free), len(idle.free))
	}
	holds := func(x tensor.Vector) bool {
		return slices.ContainsFunc(stock.free, func(f tensor.Vector) bool { return &f[0] == &x[0] })
	}

	// A committed round: the adopted vector is the new head, in no stock.
	superseded := make(tensor.Vector, dim) // the served model: from no stock
	for i := range superseded {
		superseded[i] = float64(i) + 0.5
	}
	adopted := stock.Take(dim)
	adopted[3] = 2
	acc, err := AccumulatorFromSeal(dim, SealedStripe{Sum: adopted, Spares: &stock, Weight: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	head, _, err := acc.Step(superseded)
	if err != nil {
		t.Fatal(err)
	}
	if &head[0] != &adopted[0] || head[3] != 5.5 {
		t.Fatalf("the commit is not stepped in the adopted vector: %v", head)
	}
	if len(stock.free) != k-1 || holds(head) {
		t.Fatalf("the committed head went back to the stock (%d held, want %d)", len(stock.free), k-1)
	}
	acc.Repay(superseded)
	if len(stock.free) != k || !holds(superseded) || holds(head) {
		t.Fatalf("the superseded model did not take the head's place in the stock (%d held)", len(stock.free))
	}
	if slices.ContainsFunc(superseded, func(x float64) bool { return x != 0 }) {
		t.Fatalf("the superseded model went back unzeroed: %v", superseded)
	}
	acc.Repay(make(tensor.Vector, dim))
	stock.Put(make(tensor.Vector, dim))
	if len(stock.free) != k {
		t.Fatalf("a repaid loan was repaid again, or a giver grew the stock: %d held, want %d", len(stock.free), k)
	}

	// A round that commits nothing: its own vector goes back.
	failed := stock.Take(dim)
	acc, err = AccumulatorFromSeal(dim, SealedStripe{Sum: failed, Spares: &stock, Weight: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc.Repay(nil)
	if len(stock.free) != k || !holds(failed) {
		t.Fatalf("a failed round's vector did not go back (%d held)", len(stock.free))
	}
	(*Accumulator)(nil).Repay(make(tensor.Vector, dim))
	if len(stock.free) != k {
		t.Fatal("a round that adopted nothing repaid a loan")
	}
}
