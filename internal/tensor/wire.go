package tensor

import (
	"encoding/binary"
	"math"
)

// The O(dim) wire↔float kernels: the one copy of each loop between Vector
// elements and big-endian float64 bytes or Quant8 level bytes. Each
// re-slices its operands once to the exact length (a short buffer panics
// before anything is written) so the loop carries no per-element bounds
// check, and where a microbenchmark prefers it runs 4-wide blocks over
// fixed-length windows, which keeps several loads in flight, plus a scalar
// tail. Element-wise results do not depend on the unrolling.

// FoldKernel names the fold, chosen once from CPUID: "avx2" where AddBE and
// AddLUT hand a multiple-of-8 prefix to fold_amd64.s (not under -race, which
// cannot see its stores), else "generic". Tests clear useAVX2 for the loops.
var FoldKernel, useAVX2 = "generic", false

func f64be(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

// SetBE decodes v[i] = src[8i:8i+8].
func (v Vector) SetBE(src []byte) {
	src = src[:8*len(v)]
	for ; len(v) >= 4; v, src = v[4:], src[32:] {
		d, s := v[:4:4], src[:32:32]
		d[0], d[1], d[2], d[3] = f64be(s[0:8]), f64be(s[8:16]), f64be(s[16:24]), f64be(s[24:32])
	}
	for i := range v {
		v[i] = f64be(src[8*i:])
	}
}

// AddBE folds v[i] += src[8i:8i+8].
func (v Vector) AddBE(src []byte) {
	src = src[:8*len(v)]
	if n := len(v) &^ 7; useAVX2 {
		addBEAVX2(v[:n], src)
		v, src = v[n:], src[8*n:]
	}
	for ; len(v) >= 4; v, src = v[4:], src[32:] {
		d, s := v[:4:4], src[:32:32]
		d[0] += f64be(s[0:8])
		d[1] += f64be(s[8:16])
		d[2] += f64be(s[16:24])
		d[3] += f64be(s[24:32])
	}
	for i := range v {
		v[i] += f64be(src[8*i:])
	}
}

// AxpyBE folds v[i] += alpha · src[8i:8i+8].
func (v Vector) AxpyBE(alpha float64, src []byte) {
	src = src[:8*len(v)]
	for ; len(v) >= 4; v, src = v[4:], src[32:] {
		d, s := v[:4:4], src[:32:32]
		d[0] += alpha * f64be(s[0:8])
		d[1] += alpha * f64be(s[8:16])
		d[2] += alpha * f64be(s[16:24])
		d[3] += alpha * f64be(s[24:32])
	}
	for i := range v {
		v[i] += alpha * f64be(src[8*i:])
	}
}

// PutBE encodes dst[8i:8i+8] = v[i].
func (v Vector) PutBE(dst []byte) {
	dst = dst[:8*len(v)]
	for ; len(v) >= 4; v, dst = v[4:], dst[32:] {
		s, d := v[:4:4], dst[:32:32]
		binary.BigEndian.PutUint64(d[0:8], math.Float64bits(s[0]))
		binary.BigEndian.PutUint64(d[8:16], math.Float64bits(s[1]))
		binary.BigEndian.PutUint64(d[16:24], math.Float64bits(s[2]))
		binary.BigEndian.PutUint64(d[24:32], math.Float64bits(s[3]))
	}
	for i, x := range v {
		binary.BigEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// SumSquaresBE returns Σ x² over the n floats in src, summed strictly left
// to right: several partial sums would run faster but move the result, and
// with it a norm-clip decision, by an ulp.
func SumSquaresBE(src []byte, n int) (ss float64) {
	for src = src[:8*n]; len(src) >= 32; src = src[32:] {
		s := src[:32:32]
		a, b, c, d := f64be(s[0:8]), f64be(s[8:16]), f64be(s[16:24]), f64be(s[24:32])
		ss = ss + a*a + b*b + c*c + d*d
	}
	for ; len(src) >= 8; src = src[8:] {
		ss += f64be(src) * f64be(src)
	}
	return ss
}

// SetLUT decodes v[i] = lut[src[i]], Quant8 through a table of its 256
// values. (A block form of the table loops measured no faster.)
func (v Vector) SetLUT(lut *[256]float64, src []byte) {
	src = src[:len(v)]
	for i := range v {
		v[i] = lut[src[i]]
	}
}

// AddLUT folds v[i] += lut[src[i]].
func (v Vector) AddLUT(lut *[256]float64, src []byte) {
	src = src[:len(v)]
	if n := len(v) &^ 7; useAVX2 {
		addLUTAVX2(v[:n], lut, src)
		v, src = v[n:], src[n:]
	}
	for i := range v {
		v[i] += lut[src[i]]
	}
}

// SumSquaresLUT is SumSquaresBE over table-decoded level bytes.
func SumSquaresLUT(lut *[256]float64, src []byte) (ss float64) {
	for _, q := range src {
		ss += lut[q] * lut[q]
	}
	return ss
}

// Range returns the smallest and largest element: 0, 0 if empty, NaN, NaN if any is NaN.
func (v Vector) Range() (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, p := range v[1:] {
		if p != p {
			return p, p
		}
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return lo, hi
}

// PutQuant8 encodes dst[i] = round((v[i] − lo)·255/(hi − lo)), the Quant8
// level of v[i] in [lo, hi]; every level is 0 when hi ≤ lo.
func (v Vector) PutQuant8(dst []byte, lo, hi float64) {
	scale := 0.0
	if hi > lo {
		scale = 255 / (hi - lo)
	}
	dst = dst[:len(v)]
	if math.IsInf(scale, 1) {
		// A range under about 1.4e−306 overflows the scale: divide by it.
		for i, p := range v {
			dst[i] = byte(math.Round((p - lo) / (hi - lo) * 255))
		}
		return
	}
	for i, p := range v {
		dst[i] = byte(math.Round((p - lo) * scale))
	}
}
