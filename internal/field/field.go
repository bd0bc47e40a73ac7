// Package field implements arithmetic in the prime field GF(p) with
// p = 2^61 − 1 (a Mersenne prime), plus Shamir secret sharing over it and
// the share commitments. Secure Aggregation (Bonawitz et al. 2017) shares
// its secrets in this field; Mersenne reduction keeps Mul cheap enough that
// the quadratic server cost of the protocol is dominated by protocol work
// rather than bignum overhead, as in the paper. Its masks live in Z/2^64,
// not here.
package field

import "math/bits"

// P is the field modulus 2^61 − 1.
const P uint64 = (1 << 61) - 1

// Reduce maps an arbitrary uint64 into [0, P). It, Add and Sub are branch-free,
// as their operands are secrets and shares: x − P, plus P back if negative
// (x < 2^62).
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
