package field

import (
	"bytes"
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

func TestVecOps(t *testing.T) {
	a := []uint64{1, 2, P - 1}
	b := []uint64{5, P - 1, 1}
	dst := make([]uint64, 3)
	AddVec(dst, a, b)
	if dst[0] != 6 || dst[1] != 1 || dst[2] != 0 {
		t.Fatalf("AddVec = %v", dst)
	}
	for i := range a {
		if Sub(dst[i], b[i]) != a[i] {
			t.Fatalf("Sub did not invert AddVec: %v − %v vs %v", dst, b, a)
		}
	}
}

func TestShamirRoundTrip(t *testing.T) {
	secret := uint64(123456789)
	shares, err := Split(secret, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 5 {
		t.Fatalf("got %d shares", len(shares))
	}
	got, err := Reconstruct(shares[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatalf("reconstructed %d, want %d", got, secret)
	}
	// Any subset of size t works.
	got2, err := Reconstruct([]Share{shares[4], shares[1], shares[3]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != secret {
		t.Fatalf("subset reconstruction %d, want %d", got2, secret)
	}
}

func TestShamirInsufficientShares(t *testing.T) {
	shares, _ := Split(42, 5, 3, nil)
	if _, err := Reconstruct(shares[:2], 3); err == nil {
		t.Fatal("2 of 3 shares must not reconstruct")
	}
}

func TestShamirDuplicateShares(t *testing.T) {
	shares, _ := Split(42, 5, 3, nil)
	if _, err := Reconstruct([]Share{shares[0], shares[0], shares[1]}, 3); err == nil {
		t.Fatal("duplicate shares must be rejected")
	}
}

func TestShamirBadParams(t *testing.T) {
	if _, err := Split(1, 2, 3, nil); err == nil {
		t.Fatal("n < t must fail")
	}
	if _, err := Split(1, 3, 0, nil); err == nil {
		t.Fatal("t < 1 must fail")
	}
}

func TestShamirTEquals1(t *testing.T) {
	shares, err := Split(77, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With t=1 every share IS the secret.
	for _, s := range shares {
		if s.Y != 77 {
			t.Fatalf("t=1 share %v should equal secret", s)
		}
	}
}

func TestShamirDeterministicWithSeededRNG(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, 1024)
	s1, err := Split(99, 4, 2, bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := Split(99, 4, 2, bytes.NewReader(seed))
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same randomness must give same shares")
		}
	}
}

// Property: Shamir shares of x and y added pointwise reconstruct x+y
// (the linearity Secure Aggregation depends on).
func TestShamirLinearity(t *testing.T) {
	f := func(x, y uint64) bool {
		x, y = Reduce(x), Reduce(y)
		sx, err1 := Split(x, 4, 3, nil)
		sy, err2 := Split(y, 4, 3, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		sum := make([]Share, 4)
		for i := range sum {
			sum[i] = Share{X: sx[i].X, Y: Add(sx[i].Y, sy[i].Y)}
		}
		got, err := Reconstruct(sum[:3], 3)
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
