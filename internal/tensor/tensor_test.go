package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := Vector{1, 0, -1}
	dst := NewVector(2)
	m.MulVec(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", dst)
	}
}

func TestMulVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := Vector{1, -1}
	dst := NewVector(3)
	m.MulVecT(dst, x)
	want := Vector{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", dst, want)
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, Vector{1, 2}, Vector{3, 4})
	want := []float64{6, 8, 12, 16}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddOuter data = %v, want %v", m.Data, want)
		}
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must return a view into the matrix")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	x := Vector{1, 2, 3, 4}
	dst := NewVector(4)
	Softmax(dst, x)
	var sum float64
	for _, v := range dst {
		if v <= 0 {
			t.Fatalf("softmax produced non-positive %v", v)
		}
		sum += v
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	if Argmax(dst) != 3 {
		t.Fatalf("softmax argmax = %d, want 3", Argmax(dst))
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := Vector{1000, 1001, 1002}
	dst := NewVector(3)
	Softmax(dst, x)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax not stable for large inputs: %v", dst)
		}
	}
}

func TestArgmaxEmpty(t *testing.T) {
	if Argmax(nil) != -1 {
		t.Fatal("Argmax(nil) should be -1")
	}
}

func TestAxpyDotNorm(t *testing.T) {
	v := Vector{1, 2}
	v.Axpy(3, Vector{1, 1})
	if v[0] != 4 || v[1] != 5 {
		t.Fatalf("Axpy = %v", v)
	}
	if got := v.Dot(Vector{1, 0}); got != 4 {
		t.Fatalf("Dot = %v", got)
	}
	u := Vector{3, 4}
	if !almostEqual(u.Norm2(), 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", u.Norm2())
	}
}

func TestSubAllocates(t *testing.T) {
	d := Sub(nil, Vector{3, 3}, Vector{1, 2})
	if d[0] != 2 || d[1] != 1 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestClip(t *testing.T) {
	v := Vector{-10, 0.5, 10}
	Clip(v, 1)
	if v[0] != -1 || v[1] != 0.5 || v[2] != 1 {
		t.Fatalf("Clip = %v", v)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	m := NewMatrix(2, 2)
	m.MulVec(NewVector(2), NewVector(3))
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	r := NewRNG(7)
	d1 := r.Derive(1)
	d2 := r.Derive(2)
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("derived streams should differ")
	}
	// Deriving must not perturb the parent stream.
	r2 := NewRNG(7)
	if r.Uint64() != r2.Uint64() {
		t.Fatal("Derive must not advance the parent")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestGlorotInitBounds(t *testing.T) {
	r := NewRNG(9)
	m := NewMatrix(10, 20)
	r.GlorotInit(m)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("glorot value %v outside ±%v", v, limit)
		}
	}
}

// Property: softmax is invariant to adding a constant to all logits.
func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c float64, shift float64) bool {
		for _, v := range []float64{a, b, c, shift} {
			if math.IsNaN(v) || math.Abs(v) > 100 {
				return true // skip pathological inputs
			}
		}
		x := Vector{a, b, c}
		y := Vector{a + shift, b + shift, c + shift}
		sx, sy := NewVector(3), NewVector(3)
		Softmax(sx, x)
		Softmax(sy, y)
		for i := range sx {
			if !almostEqual(sx[i], sy[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: dot product is symmetric and bilinear in the first argument.
func TestDotProperties(t *testing.T) {
	f := func(a1, a2, b1, b2, k float64) bool {
		for _, v := range []float64{a1, a2, b1, b2, k} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return true
			}
		}
		a := Vector{a1, a2}
		b := Vector{b1, b2}
		if !almostEqual(a.Dot(b), b.Dot(a), 1e-6) {
			return false
		}
		ka := a.Clone()
		ka.Scale(k)
		return almostEqual(ka.Dot(b), k*a.Dot(b), 1e-3*(1+math.Abs(k*a.Dot(b))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVecT is the adjoint of MulVec: ⟨Mx, y⟩ = ⟨x, Mᵀy⟩.
func TestMulVecAdjoint(t *testing.T) {
	r := NewRNG(17)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := NewMatrix(rows, cols)
		r.FillNormal(Vector(m.Data), 1)
		x, y := NewVector(cols), NewVector(rows)
		r.FillNormal(x, 1)
		r.FillNormal(y, 1)
		mx := NewVector(rows)
		m.MulVec(mx, x)
		mty := NewVector(cols)
		m.MulVecT(mty, y)
		if !almostEqual(mx.Dot(y), x.Dot(mty), 1e-9*(1+math.Abs(mx.Dot(y)))) {
			t.Fatalf("adjoint property failed: %v vs %v", mx.Dot(y), x.Dot(mty))
		}
	}
}

func TestExpFloat64Positive(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	for i := 0; i < 5000; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("exponential variate %v < 0", x)
		}
		sum += x
	}
	mean := sum / 5000
	if mean < 0.9 || mean > 1.1 {
		t.Fatalf("exponential mean = %v, want ≈ 1", mean)
	}
}

func TestVectorScaleZero(t *testing.T) {
	v := Vector{1, 2}
	v.Scale(0)
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("Scale(0) = %v", v)
	}
}
