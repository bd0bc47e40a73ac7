// Package field implements arithmetic in the prime field GF(p) with
// p = 2^61 − 1 (a Mersenne prime), plus Shamir secret sharing over it.
// Secure Aggregation (Bonawitz et al. 2017) masks model updates with
// pairwise pads in this field; Mersenne reduction keeps Mul cheap enough
// that the quadratic server cost of the protocol is dominated by protocol
// work rather than bignum overhead, as in the paper.
package field

import "math/bits"

// P is the field modulus 2^61 − 1.
const P uint64 = (1 << 61) - 1

// Reduce maps an arbitrary uint64 into [0, P).
func Reduce(x uint64) uint64 {
	x = (x & P) + (x >> 61)
	if x >= P {
		x -= P
	}
	return x
}

// Add returns a + b mod P. Inputs must already be reduced.
func Add(a, b uint64) uint64 {
	s := a + b // a, b < 2^61, no overflow
	if s >= P {
		s -= P
	}
	return s
}

// Sub returns a − b mod P. Inputs must already be reduced.
func Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// Neg returns −a mod P.
func Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return P - a
}

// Mul returns a · b mod P using Mersenne reduction of the 128-bit product.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a·b = hi·2^64 + lo; 2^61 ≡ 1 (mod P) so 2^64 ≡ 8 (mod P).
	// hi < 2^58 (since a,b < 2^61), so hi·8 < 2^61 — no overflow below.
	r := Reduce(lo) + Reduce(hi<<3)
	if r >= P {
		r -= P
	}
	return r
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

// AddVec computes dst[i] = a[i] + b[i] mod P.
func AddVec(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = Add(a[i], b[i])
	}
}
