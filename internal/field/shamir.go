package field

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
)

// Split shares secret among len(ys) holders so that any t of them
// reconstruct it and fewer than t learn nothing: ys[i] = f(i+1) for a random
// f of degree t−1 with f(0) = secret. f's other coefficients are drawn in one
// read of rng (crypto/rand if nil) into coef, the caller's scratch of at
// least 8(t−1) bytes, as big-endian words whose top 61 bits are uniform on
// GF(P) by rejection sampling.
func Split(ys []uint64, secret uint64, t int, coef []byte, rng io.Reader) error {
	if t < 1 || len(ys) < t || len(coef) < 8*(t-1) {
		return fmt.Errorf("field: invalid sharing parameters n=%d t=%d", len(ys), t)
	}
	if rng == nil {
		rng = rand.Reader
	}
	coef = coef[:8*(t-1)]
	for j, draw := 0, coef; j < len(coef); draw = coef[j:min(j+8, len(coef))] {
		if _, err := io.ReadFull(rng, draw); err != nil {
			return fmt.Errorf("field: rand: %w", err)
		}
		for j < len(coef) && binary.BigEndian.Uint64(coef[j:])>>3 < P {
			j += 8 // a word ≥ P stops the scan and is drawn again
		}
	}
	secret = Reduce(secret)
	for i := range ys {
		x, y := uint64(i+1), uint64(0) // Horner, from the top coefficient
		for j := len(coef) - 8; j >= 0; j -= 8 {
			y = Add(Mul(y, x), binary.BigEndian.Uint64(coef[j:])>>3)
		}
		ys[i] = Add(Mul(y, x), secret)
	}
	return nil
}

// Reconstruct recovers the secret from the first t shares (xs[i], ys[i]),
// which must sit at distinct nonzero points, by Lagrange interpolation at
// zero.
func Reconstruct(xs, ys []uint64, t int) (uint64, error) {
	if len(xs) < t || len(ys) < t {
		return 0, fmt.Errorf("field: need %d shares, have %d", t, min(len(xs), len(ys)))
	}
	var secret uint64
	for i, xi := range xs[:t] {
		num, den := uint64(1), uint64(1)
		for j, xj := range xs[:t] {
			if xi == 0 || (i != j && xi == xj) {
				return 0, fmt.Errorf("field: invalid or duplicate share x=%d", xi)
			}
			if i != j {
				num = Mul(num, Neg(xj))     // (0 − x_j)
				den = Mul(den, Sub(xi, xj)) // (x_i − x_j)
			}
		}
		secret = Add(secret, Mul(ys[i], Mul(num, Inv(den))))
	}
	return secret, nil
}
