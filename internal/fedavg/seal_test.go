package fedavg

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tensor"
)

// kernelLens are the vector lengths every O(dim) kernel is checked at: the
// 4-wide block loop and its scalar tail are both hit, alone and together.
var kernelLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 65535, 65537}

// TestStepMatchesAverageApply: the Coordinator's one-pass, in-place commit
// step is the two-step Average (Clone + Scale by 1/n̄) followed by Apply
// (Axpy 1), bit for bit — including weights whose reciprocal is not exact,
// where a fused multiply-add would round differently, and the −0 an adopted
// seal keeps. The result is the accumulator's own vector, and the spent
// accumulator takes no second Step and no further seal.
func TestStepMatchesAverageApply(t *testing.T) {
	rng := tensor.NewRNG(16)
	for trial := 0; trial < 1000; trial++ {
		dim := 1 + rng.Intn(40)
		sum, global := make(tensor.Vector, dim), make(tensor.Vector, dim)
		rng.FillNormal(sum, math.Exp(8*rng.Float64()-4))
		rng.FillNormal(global, 1)
		if trial%7 == 0 {
			sum[0], global[0] = math.Copysign(0, -1), math.Copysign(0, -1)
		}
		weight := math.Exp(10*rng.Float64() - 2) // non-dyadic
		if trial%10 == 0 {
			weight = float64(1 + rng.Intn(4096))
		}
		acc, err := AccumulatorFromSeal(dim, SealedStripe{Sum: sum, Weight: weight, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		avg, err := acc.Average()
		if err != nil {
			t.Fatal(err)
		}
		want := global.Clone()
		if err := Apply(want, avg); err != nil {
			t.Fatal(err)
		}
		before := global.Clone()
		got, err := acc.Step(global)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (weight %v) param %d: step %x, average+apply %x",
					trial, weight, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if math.Float64bits(global[i]) != math.Float64bits(before[i]) {
				t.Fatalf("trial %d: Step wrote to the global it was given", trial)
			}
		}
		if &got[0] != &sum[0] {
			t.Fatalf("trial %d: Step allocated instead of stepping in the accumulator's vector", trial)
		}
		if _, err := acc.Step(global); err == nil {
			t.Fatalf("trial %d: a second Step must fail, the sum is gone", trial)
		}
		if err := acc.AddSealed(SealedStripe{Sum: make(tensor.Vector, dim), Weight: 1, Count: 1}); err == nil {
			t.Fatalf("trial %d: AddSealed after Step must fail, it would fold into the committed checkpoint", trial)
		}
	}
	if _, err := NewAccumulator(3).Step(make(tensor.Vector, 3)); err == nil {
		t.Fatal("Step on an empty accumulator must fail")
	}
	if _, err := (*Accumulator)(nil).Step(nil); err == nil {
		t.Fatal("Step on a round that adopted no seal must fail")
	}
	acc, _ := AccumulatorFromSeal(2, SealedStripe{Sum: tensor.Vector{1, 2}, Weight: 1, Count: 1})
	if _, err := acc.Step(make(tensor.Vector, 3)); err == nil {
		t.Fatal("Step dim mismatch must fail")
	}
}

// TestAccumulatorFromSealAdopts: adopting the first seal and adding the rest
// yields the sums NewAccumulator + AddSealed would, without a copy of the
// first; a seal of the wrong dimension or with no updates is refused.
func TestAccumulatorFromSealAdopts(t *testing.T) {
	first := SealedStripe{Sum: tensor.Vector{1, -2, 3}, Weight: 3, Count: 2}
	second := SealedStripe{Sum: tensor.Vector{0.5, 0.25, -1}, Weight: 2, Count: 1}
	ref := NewAccumulator(3)
	for _, s := range []SealedStripe{first, second} {
		if err := ref.AddSealed(SealedStripe{Sum: s.Sum.Clone(), Weight: s.Weight, Count: s.Count}); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := AccumulatorFromSeal(3, first)
	if err != nil {
		t.Fatal(err)
	}
	if &acc.sum[0] != &first.Sum[0] {
		t.Fatal("the first seal's sum was copied, not adopted")
	}
	if err := acc.AddSealed(second); err != nil {
		t.Fatal(err)
	}
	if acc.Count() != ref.Count() || acc.Weight() != ref.Weight() {
		t.Fatalf("count %d weight %v, want %d %v", acc.Count(), acc.Weight(), ref.Count(), ref.Weight())
	}
	for i := range ref.sum {
		if acc.sum[i] != ref.sum[i] {
			t.Fatalf("sum[%d] = %v, want %v", i, acc.sum[i], ref.sum[i])
		}
	}
	if second.Sum[0] != 0.5 {
		t.Fatal("a later seal's sum was written to")
	}
	if _, err := AccumulatorFromSeal(4, first); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	if _, err := AccumulatorFromSeal(3, SealedStripe{Sum: tensor.Vector{1, 2, 3}, Weight: 1}); err == nil {
		t.Fatal("a seal with no updates must fail")
	}
}

// TestSealSumsGoBackToTheirStock: a sealed sum the accumulator adds goes
// back, zeroed, to the stock it came from — the one a coordinator decodes
// shard sums into, or an edge's stripe stock — and to no other; the adopted
// one, which becomes the checkpoint, goes back to none. With a warm stock,
// decoding a sum and adding it allocate nothing, and neither a sum whose
// bytes do not hold its count nor an empty one takes from the stock.
func TestSealSumsGoBackToTheirStock(t *testing.T) {
	const dim = 1024
	v := make(tensor.Vector, dim)
	for i := range v {
		v[i] = float64(i) - 0.5
	}
	b := MarshalSum(v)
	var sums, edge Spares
	holds := func(s *Spares, x tensor.Vector) bool {
		for _, f := range s.free {
			if &f[0] == &x[0] {
				return true
			}
		}
		return false
	}

	adopted, err := sums.UnmarshalSum(b)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := AccumulatorFromSeal(dim, SealedStripe{Sum: adopted, Spares: &sums, Weight: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	added, err := sums.UnmarshalSum(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.AddSealed(SealedStripe{Sum: added, Spares: &sums, Weight: 1, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if !holds(&sums, added) || len(sums.free) != 1 {
		t.Fatalf("the added sum is not the one vector back in its stock (%d held)", len(sums.free))
	}
	for i, x := range added {
		if x != 0 {
			t.Fatalf("the added sum went back unzeroed: [%d]=%v", i, x)
		}
	}

	stripe := edge.NewPartial(dim)
	if err := stripe.Accumulate(2, nil, func(sum tensor.Vector) error { copy(sum, v); return nil }); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealStripes([]*PartialAccumulator{stripe})
	if err != nil || sealed.Spares != &edge {
		t.Fatalf("a seal does not name its adopted stripe's stock: %v", err)
	}
	if err := acc.AddSealed(sealed); err != nil {
		t.Fatal(err)
	}
	if !holds(&edge, sealed.Sum) || len(sums.free) != 1 {
		t.Fatal("an edge's added seal did not go back to the edge's stock alone")
	}

	allocs := testing.AllocsPerRun(100, func() {
		sum, err := sums.UnmarshalSum(b)
		if err == nil {
			err = acc.AddSealed(SealedStripe{Sum: sum, Spares: &sums, Weight: 1, Count: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per decode and add from a warm stock", allocs)
	}
	// 3 seals above and 101 runs (AllocsPerRun warms up once): a recycled
	// vector that came back dirty would show in the dyadic sum.
	for i, x := range acc.sum {
		if x != 104*v[i] {
			t.Fatalf("sum[%d] = %v, want %v", i, x, 104*v[i])
		}
	}
	committed, err := acc.Step(make(tensor.Vector, dim))
	if err != nil || &committed[0] != &adopted[0] {
		t.Fatalf("the commit is not stepped in the adopted vector: %v", err)
	}
	if holds(&sums, committed) || holds(&edge, committed) {
		t.Fatal("the adopted vector — the committed checkpoint — is in a stock")
	}

	count := binary.AppendUvarint(nil, dim)
	for name, bad := range map[string][]byte{"count past the bytes": append(count, b[len(count):len(b)-1]...),
		"trailing byte": append(b[:len(b):len(b)], 0)} {
		if _, err := sums.UnmarshalSum(bad); err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if len(sums.free) != 1 {
			t.Fatalf("%s: a refused sum took a vector from the stock", name)
		}
	}
	if _, err := sums.UnmarshalSum(MarshalSum(nil)); err != nil || len(sums.free) != 1 {
		t.Fatalf("an eval-only seal's empty sum took a vector from the stock (%v)", err)
	}
}

// TestSealSumStockIsShared: a coordinator process's session readers decode
// shard sums from one stock while its actor adds them and puts them back;
// no vector is handed to two decodes at once, and every sum adds in whole.
func TestSealSumStockIsShared(t *testing.T) {
	const dim, readers, seals = 64, 4, 200
	v := make(tensor.Vector, dim)
	for i := range v {
		v[i] = float64(i)
	}
	b := MarshalSum(v)
	var stock Spares
	sums := make(chan tensor.Vector)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < seals; i++ {
				sum, err := stock.UnmarshalSum(b)
				if err != nil {
					t.Error(err)
					return
				}
				sums <- sum
			}
		}()
	}
	go func() { wg.Wait(); close(sums) }()
	acc := NewAccumulator(dim)
	for sum := range sums {
		if err := acc.AddSealed(SealedStripe{Sum: sum, Spares: &stock, Weight: 1, Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, x := range acc.sum {
		if x != readers*seals*v[i] {
			t.Fatalf("sum[%d] = %v, want %v", i, x, readers*seals*v[i])
		}
	}
}

// TestMarshalSumRoundTrip: the sealed-sum wire form — a uvarint count, then
// big-endian float64s, the tail of a float64 checkpoint — survives every
// block and tail length bit for bit, special values included, and refuses
// truncation, a trailing byte and a count its bytes cannot hold.
func TestMarshalSumRoundTrip(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	rng := tensor.NewRNG(7)
	for _, n := range kernelLens {
		v := make(tensor.Vector, n)
		rng.FillNormal(v, 1e3)
		copy(v, special)
		b := MarshalSum(v)
		count := binary.AppendUvarint(nil, uint64(n))
		if len(b) != len(count)+8*n || !bytes.HasPrefix(b, count) {
			t.Fatalf("n=%d: %d bytes starting %x", n, len(b), b[:min(len(b), 4)])
		}
		ckpt, err := (&checkpoint.Checkpoint{TaskName: "t", Params: v}).Marshal(checkpoint.EncodingFloat64)
		if err != nil || !bytes.HasSuffix(ckpt, b) {
			t.Fatalf("n=%d: a sealed sum is not a float64 checkpoint's tail (%v)", n, err)
		}
		back, err := UnmarshalSum(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(back) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(back))
		}
		for i := range v {
			if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d elem %d: %x != %x", n, i, math.Float64bits(back[i]), math.Float64bits(v[i]))
			}
		}
		hostile := binary.AppendUvarint(nil, 1<<62)
		for name, bad := range map[string][]byte{"truncated": b[:len(b)-1], "trailing byte": append(b[:len(b):len(b)], 0),
			"count past the bytes": append(hostile, b[len(count):]...)} {
			if got, err := UnmarshalSum(bad); err == nil {
				t.Fatalf("n=%d: %s sum decoded as %d elements", n, name, len(got))
			}
		}
	}
}
