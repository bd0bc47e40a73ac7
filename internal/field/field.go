// Package field implements arithmetic in the prime field GF(p) with
// p = 2^61 − 1 (a Mersenne prime), plus Shamir secret sharing over it.
// Secure Aggregation (Bonawitz et al. 2017) masks model updates with
// pairwise pads in this field; Mersenne reduction keeps Mul cheap enough
// that the quadratic server cost of the protocol is dominated by protocol
// work rather than bignum overhead, as in the paper.
package field

import (
	"encoding/binary"
	"math/bits"
)

// P is the field modulus 2^61 − 1.
const P uint64 = (1 << 61) - 1

// Reduce maps an arbitrary uint64 into [0, P). It, Add and Sub are branch-free,
// as keystream words are random: x − P, plus P back if negative (x < 2^62).
func Reduce(x uint64) uint64 {
	x = (x & P) + (x >> 61) - P // 2^61 ≡ 1: at most P + 7 before the − P
	return x + P&uint64(int64(x)>>63)
}

// Add returns a + b mod P. Inputs must already be reduced.
func Add(a, b uint64) uint64 {
	s := a + b - P // a, b < 2^61, no overflow
	return s + P&uint64(int64(s)>>63)
}

// Sub returns a − b mod P. Inputs must already be reduced.
func Sub(a, b uint64) uint64 {
	d := a - b
	return d + P&uint64(int64(d)>>63)
}

// Neg returns −a mod P.
func Neg(a uint64) uint64 { return Sub(0, a) }

// Mul returns a · b mod P using Mersenne reduction of the 128-bit product.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a·b = hi·2^64 + lo; 2^61 ≡ 1 (mod P) so 2^64 ≡ 8 (mod P).
	// hi < 2^58 (since a,b < 2^61), so hi·8 < 2^61 — no overflow below.
	return Add(Reduce(lo), Reduce(hi<<3))
}

// Pow returns a^e mod P by square-and-multiply.
func Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a (a ≠ 0) via Fermat's little
// theorem: a^(P−2) mod P.
func Inv(a uint64) uint64 {
	if Reduce(a) == 0 {
		panic("field: inverse of zero")
	}
	return Pow(a, P-2)
}

// Where AVX2 holds, the kernels below hand a multiple-of-4 prefix to
// field_amd64.s; a short operand panics before any write. Tests clear it.
var useAVX2 = AVX2

// AddVec computes dst[i] = a[i] + b[i] mod P.
func AddVec(dst, a, b []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	if n := len(dst) &^ 3; useAVX2 {
		addVecAVX2(dst[:n], a, b)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	for i := range dst {
		dst[i] = Add(a[i], b[i])
	}
}

// AddBE folds big-endian words w = src[8i:8i+8]: dst[i] = Add(dst[i], Reduce(w)).
func AddBE(dst []uint64, src []byte) {
	src = src[:8*len(dst)]
	if n := len(dst) &^ 3; useAVX2 {
		addBEAVX2(dst[:n], src)
		dst, src = dst[n:], src[8*n:]
	}
	for i := range dst {
		dst[i] = Add(dst[i], Reduce(binary.BigEndian.Uint64(src[8*i:])))
	}
}

// SubBE is AddBE with Sub: dst[i] = Sub(dst[i], Reduce(w)).
func SubBE(dst []uint64, src []byte) {
	src = src[:8*len(dst)]
	if n := len(dst) &^ 3; useAVX2 {
		subBEAVX2(dst[:n], src)
		dst, src = dst[n:], src[8*n:]
	}
	for i := range dst {
		dst[i] = Sub(dst[i], Reduce(binary.BigEndian.Uint64(src[8*i:])))
	}
}
