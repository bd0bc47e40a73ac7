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

// BenchmarkAddVec and BenchmarkAddBE time the vector kernels on each path
// this host has: AddVec at a 4 096-element merge, AddBE (the integer
// convert-and-add, which the mask path runs per keystream chunk) at the
// benchmark's model dimension, 65 536.
func BenchmarkAddVec(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 0))
	n := 4096
	x := make([]uint64, n)
	y := make([]uint64, n)
	for i := range x {
		x[i] = Reduce(rng.Uint64())
		y[i] = Reduce(rng.Uint64())
	}
	eachKernelPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				AddVec(x, x, y)
			}
		})
	})
}

func BenchmarkAddBE(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 0))
	n := 65536
	x, src := make([]uint64, n), make([]byte, 8*n)
	for i := range src {
		src[i] = byte(rng.Uint32())
	}
	eachKernelPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				AddBE(x, src)
			}
		})
	})
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
