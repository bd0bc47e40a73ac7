package field

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// newBlinder draws a fresh commitment blinder.
func newBlinder() (b [BlinderLen]byte) {
	rand.Read(b[:])
	return b
}

func TestCommitShareRoundTrip(t *testing.T) {
	blinder := newBlinder()
	ctx := []byte("owner-7/b")
	ys := []uint64{1, P - 1, 0, 123456789}
	c := CommitShare(ctx, 3, ys, blinder)
	if !VerifyShare(ctx, 3, ys, blinder, c[:]) {
		t.Fatal("honest share must verify")
	}
}

func TestCommitShareDetectsTampering(t *testing.T) {
	blinder := newBlinder()
	ctx := []byte("owner-7/b")
	ys := []uint64{10, 20, 30}
	c := CommitShare(ctx, 5, ys, blinder)

	cases := []struct {
		name string
		ok   bool
		f    func() bool
	}{
		{"perturbed y", false, func() bool {
			bad := []uint64{10, 20, 31}
			return VerifyShare(ctx, 5, bad, blinder, c[:])
		}},
		{"perturbed x", false, func() bool {
			return VerifyShare(ctx, 6, ys, blinder, c[:])
		}},
		{"wrong context", false, func() bool {
			return VerifyShare([]byte("owner-7/sk"), 5, ys, blinder, c[:])
		}},
		{"wrong blinder", false, func() bool {
			other := newBlinder()
			return VerifyShare(ctx, 5, ys, other, c[:])
		}},
		{"truncated commitment", false, func() bool {
			return VerifyShare(ctx, 5, ys, blinder, c[:CommitmentLen-1])
		}},
		{"fewer chunks", false, func() bool {
			return VerifyShare(ctx, 5, ys[:2], blinder, c[:])
		}},
	}
	for _, tc := range cases {
		if got := tc.f(); got != tc.ok {
			t.Errorf("%s: verify = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// TestCommitShareContextLengthFraming pins the length-prefixed framing:
// moving a byte between context and the first y must change the digest
// (no ambiguous concatenation).
func TestCommitShareContextLengthFraming(t *testing.T) {
	var blinder [BlinderLen]byte
	a := CommitShare([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2}, 9, []uint64{3}, blinder)
	b := CommitShare([]byte{1}, 9, []uint64{2 << 56, 3}[0:1], blinder)
	if bytes.Equal(a[:], b[:]) {
		t.Fatal("distinct (context, ys) framings must not collide")
	}
}

func TestCommitShareIsHiding(t *testing.T) {
	// Same share, two blinders: distinct commitments — the broadcast leaks
	// nothing an exhaustive 48-bit chunk search could confirm without the
	// blinder.
	ys := []uint64{42}
	b1 := newBlinder()
	b2 := newBlinder()
	c1 := CommitShare(nil, 1, ys, b1)
	c2 := CommitShare(nil, 1, ys, b2)
	if bytes.Equal(c1[:], c2[:]) {
		t.Fatal("commitments must depend on the blinder")
	}
}
