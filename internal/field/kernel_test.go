package field

import (
	"encoding/binary"
	"math/big"
	"math/rand/v2"
	"testing"
)

// The references below share no code with the package: big-endian words
// through math/big, sums and differences through % P.

func refReduce(w uint64) uint64 {
	return new(big.Int).Mod(new(big.Int).SetUint64(w), new(big.Int).SetUint64(P)).Uint64()
}

func refAdd(a, b uint64) uint64 { return (a + b) % P }
func refSub(a, b uint64) uint64 { return (a + P - b) % P }

func TestScalarOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	words := kernelWords(rng)
	for _, w := range words {
		if got, want := Reduce(w), refReduce(w); got != want {
			t.Fatalf("Reduce(%#x) = %#x, want %#x", w, got, want)
		}
		for _, v := range words {
			a, b := refReduce(w), refReduce(v)
			if got, want := Add(a, b), refAdd(a, b); got != want {
				t.Fatalf("Add(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
			if got, want := Sub(a, b), refSub(a, b); got != want {
				t.Fatalf("Sub(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

// kernelWords are the keystream words the kernels must get right: the
// bounds of each conditional subtract, words that reduce to exactly 0 or
// P−1 (k·P and k·P + P−1 for every k the top three bits allow), and
// random words.
func kernelWords(rng *rand.Rand) []uint64 {
	words := []uint64{0, 1, P - 1, P, P + 1, 1 << 61, 1<<62 - 1, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for k := uint64(2); k <= 8; k++ {
		words = append(words, k*P, k*P+P-1)
	}
	for range 16 {
		words = append(words, rng.Uint64())
	}
	return words
}

// kernelInputs lays out n elements: src the words above, round-robin, and
// dst[i] chosen against r = src's reduced word so that d + r = P, d = r,
// d < r, d = 0 and d = P−1 each meet every word in every lane.
func kernelInputs(rng *rand.Rand, n int) (dst, other []uint64, src []byte) {
	words := kernelWords(rng)
	dst, other, src = make([]uint64, n), make([]uint64, n), make([]byte, 8*n)
	for i := range dst {
		w := words[i%len(words)]
		binary.BigEndian.PutUint64(src[8*i:], w)
		r := refReduce(w)
		other[i] = r
		switch i / len(words) % 6 {
		case 0:
			dst[i] = (P - r) % P
		case 1:
			dst[i] = r
		case 2:
			dst[i] = rng.Uint64N(r + 1) // d ≤ r, d < r unless r = 0
		case 3:
			dst[i] = 0
		case 4:
			dst[i] = P - 1
		default:
			dst[i] = rng.Uint64N(P)
		}
	}
	return dst, other, src
}

// eachKernelPath runs f on the scalar loops ("generic") and, where the host
// has them, on the AVX2 kernels, then restores the host's choice.
func eachKernelPath(f func(path string)) {
	host := useAVX2
	defer func() { useAVX2 = host }()
	for _, path := range []string{"generic", "avx2"} {
		if path == "generic" || host {
			useAVX2 = path == "avx2"
			f(path)
		}
	}
}

// checkKernels runs AddBE, SubBE and AddVec (into a third vector and in
// place) over dst/other/src and compares every element with the
// references, and the guard element past len(dst) with its old value.
func checkKernels(t testing.TB, path string, dst, other []uint64, src []byte) {
	n := len(dst)
	for _, k := range []struct {
		name string
		run  func(d []uint64)
		ref  func(i int) uint64
	}{
		{"AddBE", func(d []uint64) { AddBE(d, src) }, func(i int) uint64 { return refAdd(dst[i], refReduce(binary.BigEndian.Uint64(src[8*i:]))) }},
		{"SubBE", func(d []uint64) { SubBE(d, src) }, func(i int) uint64 { return refSub(dst[i], refReduce(binary.BigEndian.Uint64(src[8*i:]))) }},
		{"AddVec", func(d []uint64) { AddVec(d, dst, other) }, func(i int) uint64 { return refAdd(dst[i], other[i]) }},
		{"AddVec in place", func(d []uint64) { AddVec(d, d, other) }, func(i int) uint64 { return refAdd(dst[i], other[i]) }},
	} {
		got := append(append(make([]uint64, 0, n+1), dst...), 0xdead)
		if k.name == "AddVec" {
			clear(got[:n])
		}
		k.run(got[:n])
		for i := 0; i < n; i++ {
			if want := k.ref(i); got[i] != want {
				t.Fatalf("%s (%s) n=%d [%d]: got %#x, want %#x (dst %#x)", k.name, path, n, i, got[i], want, dst[i])
			}
		}
		if got[n] != 0xdead {
			t.Fatalf("%s (%s) n=%d wrote past len(dst)", k.name, path, n)
		}
	}
}

// TestFieldKernelsMatchScalar: AddBE, SubBE and AddVec on the scalar loops,
// and on the AVX2 kernels where the host has them, equal the references at
// every length 0–67 (each tail after every 4-wide prefix) and at 4 097,
// over the edge words of kernelWords; a short operand panics with dst
// unchanged.
func TestFieldKernelsMatchScalar(t *testing.T) {
	t.Logf("field kernels: AVX2 %v", AVX2)
	lens := []int{4097}
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	eachKernelPath(func(path string) {
		rng := rand.New(rand.NewPCG(5, 0))
		for _, n := range lens {
			dst, other, src := kernelInputs(rng, n)
			checkKernels(t, path, dst, other, src)
			if n == 0 {
				continue
			}
			for name, run := range map[string]func(d []uint64){
				"AddBE":  func(d []uint64) { AddBE(d, src[:8*n-1:8*n-1]) },
				"SubBE":  func(d []uint64) { SubBE(d, src[:8*n-1:8*n-1]) },
				"AddVec": func(d []uint64) { AddVec(d, d, other[:n-1:n-1]) },
			} {
				got := append([]uint64(nil), dst...)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s (%s) n=%d accepted a short operand", name, path, n)
						}
					}()
					run(got)
				}()
				for i := range got {
					if got[i] != dst[i] {
						t.Fatalf("%s (%s) n=%d wrote [%d] before panicking", name, path, n, i)
					}
				}
			}
		}
	})
}

// FuzzFieldKernels holds the kernels, on both paths, to the references
// over arbitrary keystream bytes; dst is drawn from the seed, reduced.
func FuzzFieldKernels(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add(make([]byte, 8*9), uint64(1))
	edge := make([]byte, 0, 8*16)
	for _, w := range kernelWords(rand.New(rand.NewPCG(6, 0)))[:16] {
		edge = binary.BigEndian.AppendUint64(edge, w)
	}
	f.Add(edge, uint64(2))
	f.Fuzz(func(t *testing.T, src []byte, seed uint64) {
		n := len(src) / 8
		rng := rand.New(rand.NewPCG(seed, 0))
		dst, other := make([]uint64, n), make([]uint64, n)
		for i := range dst {
			dst[i], other[i] = rng.Uint64N(P), refReduce(binary.BigEndian.Uint64(src[8*i:]))
		}
		eachKernelPath(func(path string) { checkKernels(t, path, dst, other, src[:8*n]) })
	})
}
