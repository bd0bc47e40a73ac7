package field

import (
	"math/rand/v2"
	"testing"
)

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0))
	x, y := Reduce(rng.Uint64()), Reduce(rng.Uint64())
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 0))
	x := Reduce(rng.Uint64()) | 1
	for i := 0; i < b.N; i++ {
		_ = Inv(x)
	}
}

func BenchmarkShamirSplit(b *testing.B) {
	ys, coef := make([]uint64, 10), make([]byte, 8*5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Split(ys, 123456, 6, coef, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShamirReconstruct(b *testing.B) {
	xs, ys, err := shamir(123456, 10, 6, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(xs[:6], ys[:6], 6); err != nil {
			b.Fatal(err)
		}
	}
}
