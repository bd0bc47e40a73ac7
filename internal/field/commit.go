package field

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
)

// Share commitments give Shamir sharing the verifiability of Feldman VSS
// without its exponent leak: the dealer publishes one commitment per
// evaluation point, each holder checks the share it received against the
// dealer's broadcast, and a reconstructing party checks every revealed
// share before interpolating — so a forged or corrupted share is
// attributed to a specific device instead of silently poisoning the
// reconstructed secret.
//
// Classic Feldman commits to the polynomial coefficients in a prime-order
// group (A_j = a_j·G) and holders verify f(i)·G == Σ A_j·i^j. That shape
// is unsound for the 48-bit chunked secrets shared here: the committed
// constant term a_0·G would expose each chunk to a 2^24 baby-step/giant-
// step discrete log, handing an honest-but-curious server every device's
// personal mask seed — precisely what Secure Aggregation exists to hide.
// (It is also incoherent across moduli: the shares live in GF(2^61−1)
// while group scalars are reduced mod the curve order, so the exponent
// equation does not even hold for reduced chunk values.)
//
// Instead each evaluation is committed with a hiding, binding hash
// commitment: C_i = SHA-256(tag ‖ context ‖ x_i ‖ y_i… ‖ blinder_i). The
// 16-byte random blinder makes the commitment reveal nothing about the
// share; collision resistance binds the dealer to one value per point.
// What this gives up relative to Feldman is only the low-degree
// consistency check — a dealer can still commit to points that lie on no
// degree-(t−1) polynomial — but a dealer inconsistent with its own
// sharing corrupts only the reconstruction of its own secret, which is
// harm-equivalent to submitting a garbage input and is caught (and
// blamed) by the same per-share checks at reconstruction time.

// BlinderLen is the length of a commitment blinder in bytes.
const BlinderLen = 16

// CommitmentLen is the length of a share commitment in bytes.
const CommitmentLen = sha256.Size

// commitTag domain-separates share commitments from every other SHA-256
// use in the codebase.
var commitTag = []byte("fieldvss1")

// CommitShare commits to one evaluation point of a (possibly chunked)
// Shamir sharing: the x coordinate and the y values of every chunk shared
// at that point. context carries the caller's domain separation (dealer
// identity, share kind, protocol instance) so commitments cannot be
// replayed across roles.
func CommitShare(context []byte, x uint64, ys []uint64, blinder [BlinderLen]byte) [CommitmentLen]byte {
	h := sha256.New()
	h.Write(commitTag)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(context)))
	h.Write(n[:])
	h.Write(context)
	binary.BigEndian.PutUint64(n[:], x)
	h.Write(n[:])
	binary.BigEndian.PutUint64(n[:], uint64(len(ys)))
	h.Write(n[:])
	for _, y := range ys {
		binary.BigEndian.PutUint64(n[:], y)
		h.Write(n[:])
	}
	h.Write(blinder[:])
	var out [CommitmentLen]byte
	h.Sum(out[:0])
	return out
}

// VerifyShare reports whether (x, ys, blinder) matches the commitment c.
func VerifyShare(context []byte, x uint64, ys []uint64, blinder [BlinderLen]byte, c []byte) bool {
	if len(c) != CommitmentLen {
		return false
	}
	want := CommitShare(context, x, ys, blinder)
	return subtle.ConstantTimeCompare(want[:], c) == 1
}
