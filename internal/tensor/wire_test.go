package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// kernelLens hit the 4-wide block loop and the scalar tail alone and
// together.
var kernelLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 65535, 65537}

// kernelInput returns n float64 values (specials first), their big-endian
// encoding at an odd offset inside a larger buffer, and n level bytes.
func kernelInput(n int) (vals Vector, wire, levels []byte) {
	rng := NewRNG(uint64(n) + 1)
	vals = make(Vector, n)
	rng.FillNormal(vals, 10)
	copy(vals, []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64})
	buf := make([]byte, 3+8*n+5)
	for i, x := range vals {
		binary.BigEndian.PutUint64(buf[3+8*i:], math.Float64bits(x))
	}
	levels = make([]byte, n)
	for i := range levels {
		levels[i] = byte(rng.Uint64())
	}
	return vals, buf[3:], levels
}

func sameBits(t *testing.T, what string, n int, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: len %d, want %d", what, n, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d elem %d: %v (%x), want %v (%x)", what, n, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestWireKernelsMatchNaiveLoops: every O(dim) kernel equals the obvious
// one-element-at-a-time loop bit for bit, at every block/tail length, on
// input that is not 8-byte aligned and carries ±Inf, NaN, −0 and denormals.
func TestWireKernelsMatchNaiveLoops(t *testing.T) {
	var lut [256]float64
	for q := range lut {
		lut[q] = -3 + float64(q)*0.0123
	}
	for _, n := range kernelLens {
		vals, wire, levels := kernelInput(n)
		start := make(Vector, n)
		NewRNG(99).FillNormal(start, 1)
		const alpha = 0.3

		got := make(Vector, n)
		got.SetBE(wire)
		sameBits(t, "SetBE", n, got, vals)

		got, want := start.Clone(), start.Clone()
		got.AddBE(wire)
		for i := range want {
			want[i] += vals[i]
		}
		sameBits(t, "AddBE", n, got, want)

		got, want = start.Clone(), start.Clone()
		got.AxpyBE(alpha, wire)
		for i := range want {
			want[i] += alpha * vals[i]
		}
		sameBits(t, "AxpyBE", n, got, want)

		out := make([]byte, 8*n+2)
		out[8*n], out[8*n+1] = 0xAA, 0xBB
		vals.PutBE(out)
		if string(out[:8*n]) != string(wire[:8*n]) || out[8*n] != 0xAA || out[8*n+1] != 0xBB {
			t.Fatalf("PutBE n=%d: bytes differ or wrote past 8n", n)
		}

		var ss float64
		for _, x := range vals {
			ss += x * x
		}
		sameBits(t, "SumSquaresBE", n, Vector{SumSquaresBE(wire, n)}, Vector{ss})

		got, want = make(Vector, n), make(Vector, n)
		got.SetLUT(&lut, levels)
		for i := range want {
			want[i] = lut[levels[i]]
		}
		sameBits(t, "SetLUT", n, got, want)

		got, want = start.Clone(), start.Clone()
		got.AddLUT(&lut, levels)
		ss = 0
		for i := range want {
			want[i] += lut[levels[i]]
			ss += lut[levels[i]] * lut[levels[i]]
		}
		sameBits(t, "AddLUT", n, got, want)
		sameBits(t, "SumSquaresLUT", n, Vector{SumSquaresLUT(&lut, levels)}, Vector{ss})

		// Finite operands for the float↔float kernels: NaN payload
		// propagation through a product is the hardware's business.
		x := make(Vector, n)
		NewRNG(5).FillNormal(x, 3)
		got, want = start.Clone(), start.Clone()
		got.Axpy(alpha, x)
		for i := range want {
			want[i] += alpha * x[i]
		}
		sameBits(t, "Axpy", n, got, want)
		got.Scale(alpha)
		for i := range want {
			want[i] *= alpha
		}
		sameBits(t, "Scale", n, got, want)
	}
}

// TestWireKernelsRefuseShortBuffers: a byte slice shorter than the vector
// needs panics before anything is written, never half-applies.
func TestWireKernelsRefuseShortBuffers(t *testing.T) {
	short := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted a short buffer", name)
			}
		}()
		f()
	}
	v := Vector{1, 2, 3, 4, 5}
	var lut [256]float64
	short("SetBE", func() { v.SetBE(make([]byte, 39)) })
	short("AddBE", func() { v.AddBE(make([]byte, 39)) })
	short("AxpyBE", func() { v.AxpyBE(2, make([]byte, 39)) })
	short("PutBE", func() { v.PutBE(make([]byte, 39)) })
	short("SumSquaresBE", func() { SumSquaresBE(make([]byte, 39), 5) })
	short("SetLUT", func() { v.SetLUT(&lut, make([]byte, 4)) })
	short("AddLUT", func() { v.AddLUT(&lut, make([]byte, 4)) })
	short("PutQuant8", func() { v.PutQuant8(make([]byte, 4), 0, 1) })
	for i, x := range v {
		if x != float64(i+1) {
			t.Fatalf("a refused call wrote v[%d] = %v", i, x)
		}
	}
}

// TestFoldKernelsMatchScalar: AddBE and AddLUT on the fold this host runs
// equal the scalar loops bit for bit, at lengths 0–70, 4097 and 65536 and
// every src offset 0–7, on ±0, subnormals, ±Inf and NaNs with distinct
// payloads in both operands and through all 256 table indices; neither
// writes past len(v), and a short src panics with v unchanged.
func TestFoldKernelsMatchScalar(t *testing.T) {
	host := useAVX2
	defer func() { useAVX2 = host }()
	t.Logf("fold kernel %q against the scalar loops", FoldKernel)
	pool := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1040, 0x1p-1022,
		math.Inf(1), math.Inf(-1), 1, -2.5, 3.25e-7, math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff80000000abc00),
		math.Float64frombits(0x7ff0000000000123), math.Float64frombits(0xfff4000000000456)}
	var lut [256]float64
	for q := range lut {
		lut[q] = pool[(5*q+q/16)%len(pool)]
	}
	lens := []int{4097, 65536}
	for n := 0; n <= 70; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		for off := 0; off < 8; off++ {
			// Every (v, src) pair of pool values meets in 256 elements, and
			// in every lane of a kernel iteration within 4096.
			back := make(Vector, n+8)
			for i := range back {
				back[i] = pool[i/len(pool)%len(pool)]
			}
			wire, levels := make([]byte, off+8*n)[off:], make([]byte, off+n)[off:]
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint64(wire[8*i:], math.Float64bits(pool[(i+i>>8)%len(pool)]))
				levels[i] = byte(37*i + i>>8)
			}
			for _, k := range []struct {
				name      string
				run, fail func(v Vector)
			}{
				{"AddBE", func(v Vector) { v.AddBE(wire) }, func(v Vector) { v.AddBE(wire[: 8*n-1 : 8*n-1]) }},
				{"AddLUT", func(v Vector) { v.AddLUT(&lut, levels) }, func(v Vector) { v.AddLUT(&lut, levels[:n-1:n-1]) }},
			} {
				want, got := back.Clone(), back.Clone()
				useAVX2 = false
				k.run(want[:n])
				useAVX2 = host
				k.run(got[:n])
				sameBits(t, k.name, n, got, want)
				sameBits(t, k.name+" past len(v)", n, got[n:], back[n:])
				if n == 0 {
					continue
				}
				got = back.Clone()
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s n=%d: accepted a short src", k.name, n)
						}
					}()
					k.fail(got[:n])
				}()
				sameBits(t, k.name+" after a short src", n, got, back)
			}
		}
	}
}

func TestRangeAndPutQuant8(t *testing.T) {
	if lo, hi := (Vector{}).Range(); lo != 0 || hi != 0 {
		t.Fatalf("empty range %v %v", lo, hi)
	}
	v := Vector{0.5, -2, 3, 1}
	lo, hi := v.Range()
	if lo != -2 || hi != 3 {
		t.Fatalf("range %v %v", lo, hi)
	}
	for _, w := range []Vector{{math.NaN(), 1, 2}, {1, math.NaN(), 2}, {1, 2, math.NaN()}} {
		if lo, hi := w.Range(); !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Fatalf("range of %v is [%v, %v], want NaN, NaN", w, lo, hi)
		}
	}
	q := make([]byte, len(v))
	v.PutQuant8(q, lo, hi)
	if want := []byte{128, 0, 255, 153}; string(q) != string(want) {
		t.Fatalf("levels %v, want %v", q, want)
	}
}

func BenchmarkPutF64(b *testing.B) {
	const n = 65536
	v := make(Vector, n)
	NewRNG(1).FillNormal(v, 1)
	dst := make([]byte, 8*n)
	b.SetBytes(8 * n)
	for i := 0; i < b.N; i++ {
		v.PutBE(dst)
	}
}
