package secagg

import (
	"fmt"
	"strconv"

	"repro/internal/field"
	"repro/internal/protocol"
)

// Verifiable sharing (the Feldman-VSS role, adapted — see
// internal/field/commit.go for why exponent commitments are unsound for
// 48-bit chunked secrets): alongside its Round-1 share bundles, every
// owner broadcasts one hiding commitment per (holder, secret kind)
// evaluation point. Holders verify the shares they receive on receipt and
// complain about mismatches; the server verifies every share revealed at
// unmask time before it enters reconstruction. Failures are attributed:
// a bad bundle blames its owner (excluded before the masked-input round,
// so the group still commits without it), a forged unmask share blames
// the responder (its shares are skipped; reconstruction proceeds from the
// other ≥ T valid ones).

// Share kinds, used for commitment domain separation.
const (
	kindB  = byte('b') // personal mask seed b_u
	kindSK = byte('k') // masking secret key
)

// commitContext appends to b the domain-separation context for one owner's
// shares of one secret kind, "sagg/vss/<owner>/<kind>". The holder's
// evaluation point x is bound separately by field.CommitShare.
func commitContext(b []byte, owner int, kind byte) []byte {
	b = strconv.AppendInt(append(b, "sagg/vss/"...), int64(owner), 10)
	return append(b, '/', kind)
}

// commitChunked commits to one chunked share.
func commitChunked(owner int, kind byte, s chunkedShare, blinder [field.BlinderLen]byte) [field.CommitmentLen]byte {
	var ctx [32]byte
	return field.CommitShare(commitContext(ctx[:0], owner, kind), s.X, s.Ys[:], blinder)
}

// verifyChunked checks a chunked share and its blinder against a
// broadcast commitment.
func verifyChunked(owner int, kind byte, s chunkedShare, blinder [field.BlinderLen]byte, commitment [field.CommitmentLen]byte) bool {
	var ctx [32]byte
	return field.VerifyShare(commitContext(ctx[:0], owner, kind), s.X, s.Ys[:], blinder, commitment[:])
}

// validCommits checks an owner's commitment broadcast covers a roster of n
// holders.
func validCommits(sc *protocol.ShareCommitments, n int) error {
	if len(sc.B) != n || len(sc.SK) != n {
		return fmt.Errorf("secagg: commitments from %d cover %d/%d holders, want %d",
			sc.Owner, len(sc.B), len(sc.SK), n)
	}
	return nil
}
