package field

import (
	"bytes"
	"io"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestReduce(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0},
		{P, 0},
		{P + 1, 1},
		{P - 1, P - 1},
		{^uint64(0), Reduce(^uint64(0))},
	}
	for _, c := range cases {
		if got := Reduce(c.in); got != c.want {
			t.Errorf("Reduce(%d) = %d, want %d", c.in, got, c.want)
		}
		if got := Reduce(c.in); got >= P {
			t.Errorf("Reduce(%d) = %d not in field", c.in, got)
		}
	}
}

// The references below share no code with the package: reduction through
// math/big, sums and differences through % P.

func refReduce(w uint64) uint64 {
	return new(big.Int).Mod(new(big.Int).SetUint64(w), new(big.Int).SetUint64(P)).Uint64()
}

func refAdd(a, b uint64) uint64 { return (a + b) % P }
func refSub(a, b uint64) uint64 { return (a + P - b) % P }

// TestScalarOpsMatchReference holds Reduce, Add and Sub to the references
// over the bounds of each conditional subtract, words that reduce to
// exactly 0 or P−1 (k·P and k·P + P−1 for every k the top three bits
// allow), and random words.
func TestScalarOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	words := []uint64{0, 1, P - 1, P, P + 1, 1 << 61, 1<<62 - 1, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for k := uint64(2); k <= 8; k++ {
		words = append(words, k*P, k*P+P-1)
	}
	for range 16 {
		words = append(words, rng.Uint64())
	}
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

func TestAddSubInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for i := 0; i < 1000; i++ {
		a := Reduce(rng.Uint64())
		b := Reduce(rng.Uint64())
		if Sub(Add(a, b), b) != a {
			t.Fatalf("(a+b)-b != a for a=%d b=%d", a, b)
		}
		if Add(a, Neg(a)) != 0 {
			t.Fatalf("a + (−a) != 0 for a=%d", a)
		}
	}
}

func TestMulSmall(t *testing.T) {
	if Mul(3, 4) != 12 {
		t.Fatal("3·4 != 12")
	}
	if Mul(P-1, P-1) != 1 { // (−1)² = 1
		t.Fatalf("(P−1)² = %d, want 1", Mul(P-1, P-1))
	}
	if Mul(0, 123) != 0 {
		t.Fatal("0·x != 0")
	}
}

func TestMulMatchesBigIntSemantics(t *testing.T) {
	// Cross-check with the identity (a·b) mod P computed via repeated
	// addition for small operands and via known algebra for large ones.
	rng := rand.New(rand.NewPCG(2, 0))
	for i := 0; i < 200; i++ {
		a := Reduce(rng.Uint64())
		// Distributivity: a·(b+c) == a·b + a·c.
		b := Reduce(rng.Uint64())
		c := Reduce(rng.Uint64())
		left := Mul(a, Add(b, c))
		right := Add(Mul(a, b), Mul(a, c))
		if left != right {
			t.Fatalf("distributivity failed: a=%d b=%d c=%d", a, b, c)
		}
	}
}

func TestPowInv(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	for i := 0; i < 100; i++ {
		a := Reduce(rng.Uint64())
		if a == 0 {
			continue
		}
		if Mul(a, Inv(a)) != 1 {
			t.Fatalf("a·a⁻¹ != 1 for a=%d", a)
		}
	}
	if Pow(2, 61) != Add(1, 1) { // 2^61 = 2·2^60; 2^61 mod P = 2^61 − P·1 + ... = 2^61-(2^61-1)=1? No: 2^61 mod (2^61−1) = 1.
		// 2^61 ≡ 1 (mod P)
		if Pow(2, 61) != 1 {
			t.Fatalf("2^61 mod P = %d, want 1", Pow(2, 61))
		}
	}
	if Pow(5, 0) != 1 {
		t.Fatal("a^0 != 1")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	Inv(0)
}

// shamir shares secret among n holders with threshold t; xs are the
// holders' evaluation points.
func shamir(secret uint64, n, t int, rng io.Reader) (xs, ys []uint64, err error) {
	xs, ys = make([]uint64, n), make([]uint64, n)
	for i := range xs {
		xs[i] = uint64(i + 1)
	}
	return xs, ys, Split(ys, secret, t, make([]byte, 8*max(t-1, 0)), rng)
}

func TestShamirRoundTrip(t *testing.T) {
	secret := uint64(123456789)
	xs, ys, err := shamir(secret, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(xs[:3], ys[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatalf("reconstructed %d, want %d", got, secret)
	}
	// Any subset of size t works.
	got2, err := Reconstruct([]uint64{xs[4], xs[1], xs[3]}, []uint64{ys[4], ys[1], ys[3]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != secret {
		t.Fatalf("subset reconstruction %d, want %d", got2, secret)
	}
}

func TestShamirInsufficientShares(t *testing.T) {
	xs, ys, _ := shamir(42, 5, 3, nil)
	if _, err := Reconstruct(xs[:2], ys[:2], 3); err == nil {
		t.Fatal("2 of 3 shares must not reconstruct")
	}
}

func TestShamirDuplicateShares(t *testing.T) {
	xs, ys, _ := shamir(42, 5, 3, nil)
	if _, err := Reconstruct([]uint64{xs[0], xs[0], xs[1]}, []uint64{ys[0], ys[0], ys[1]}, 3); err == nil {
		t.Fatal("duplicate shares must be rejected")
	}
	if _, err := Reconstruct([]uint64{0, xs[0], xs[1]}, ys, 3); err == nil {
		t.Fatal("a share at x = 0 must be rejected")
	}
}

func TestShamirBadParams(t *testing.T) {
	if _, _, err := shamir(1, 2, 3, nil); err == nil {
		t.Fatal("n < t must fail")
	}
	if _, _, err := shamir(1, 3, 0, nil); err == nil {
		t.Fatal("t < 1 must fail")
	}
	if err := Split(make([]uint64, 3), 1, 3, make([]byte, 15), nil); err == nil {
		t.Fatal("a coefficient scratch under 8(t−1) bytes must fail")
	}
}

func TestShamirTEquals1(t *testing.T) {
	_, ys, err := shamir(77, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With t=1 every share IS the secret.
	for _, y := range ys {
		if y != 77 {
			t.Fatalf("t=1 share %v should equal secret", y)
		}
	}
}

func TestShamirDeterministicWithSeededRNG(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, 1024)
	_, s1, err := shamir(99, 4, 2, bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	_, s2, _ := shamir(99, 4, 2, bytes.NewReader(seed))
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same randomness must give same shares")
		}
	}
}

// TestShamirRedrawsOutOfFieldCoefficients: a coefficient word whose top 61
// bits are P or above is drawn again, so every coefficient is uniform on
// GF(P); the redraw reads only that word, and the shares still reconstruct.
func TestShamirRedrawsOutOfFieldCoefficients(t *testing.T) {
	// Three coefficients: the second word is all ones (≥ P), its redraw ends
	// the randomness.
	stream := append(bytes.Repeat([]byte{1}, 8), bytes.Repeat([]byte{0xff}, 8)...)
	stream = append(stream, bytes.Repeat([]byte{2}, 8)...)
	stream = append(stream, bytes.Repeat([]byte{3}, 8)...)
	xs, ys, err := shamir(5, 6, 4, bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	a1, a2, a3 := uint64(0x0101010101010101>>3), uint64(0x0303030303030303>>3), uint64(0x0202020202020202>>3)
	for i, x := range xs {
		want := Add(Add(5, Mul(a1, x)), Add(Mul(a2, Mul(x, x)), Mul(a3, Mul(x, Mul(x, x)))))
		if ys[i] != want {
			t.Fatalf("share %d = %d, want %d", i, ys[i], want)
		}
	}
	if got, err := Reconstruct(xs[2:], ys[2:], 4); err != nil || got != 5 {
		t.Fatalf("reconstructed %d (%v), want 5", got, err)
	}
}

// Property: Shamir shares of x and y added pointwise reconstruct x+y
// (the linearity Secure Aggregation depends on).
func TestShamirLinearity(t *testing.T) {
	f := func(x, y uint64) bool {
		x, y = Reduce(x), Reduce(y)
		xs, sx, err1 := shamir(x, 4, 3, nil)
		_, sy, err2 := shamir(y, 4, 3, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		sum := make([]uint64, 4)
		for i := range sum {
			sum[i] = Add(sx[i], sy[i])
		}
		got, err := Reconstruct(xs[:3], sum[:3], 3)
		return err == nil && got == Add(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: field axioms hold for random elements.
func TestFieldAxioms(t *testing.T) {
	f := func(ra, rb, rc uint64) bool {
		a, b, c := Reduce(ra), Reduce(rb), Reduce(rc)
		// Associativity and commutativity of Add/Mul.
		if Add(Add(a, b), c) != Add(a, Add(b, c)) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		if Add(a, b) != Add(b, a) || Mul(a, b) != Mul(b, a) {
			return false
		}
		// Identity elements.
		return Add(a, 0) == a && Mul(a, 1) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
