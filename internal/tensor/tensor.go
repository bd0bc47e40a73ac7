// Package tensor provides the small dense linear-algebra kernels used by
// the neural-network substrate. Everything operates on float64 slices and
// row-major matrices; there are no external dependencies.
//
// The package exists so the rest of the system (checkpoints, plans,
// aggregation) can treat model parameters as flat vectors, which is exactly
// how the FL protocol ships them.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes dst = m · x. dst must have length m.Rows and x length m.Cols.
func (m *Matrix) MulVec(dst, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVec shape mismatch: %d×%d · %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecT computes dst = mᵀ · x. dst must have length m.Cols and x length m.Rows.
func (m *Matrix) MulVecT(dst, x Vector) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecT shape mismatch: %d×%d ᵀ· %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// AddOuter accumulates m += scale · (a ⊗ b), the rank-1 update used by
// dense-layer backprop. a must have length m.Rows, b length m.Cols.
func (m *Matrix) AddOuter(scale float64, a, b Vector) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuter shape mismatch: %d×%d += %d⊗%d", m.Rows, m.Cols, len(a), len(b)))
	}
	for i := 0; i < m.Rows; i++ {
		s := scale * a[i]
		if s == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += s * b[j]
		}
	}
}

// NewVector allocates a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Zero sets every element to zero.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Axpy computes v += alpha · x.
func (v Vector) Axpy(alpha float64, x Vector) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(v), len(x)))
	}
	for ; len(v) >= 4; v, x = v[4:], x[4:] {
		d, s := v[:4:4], x[:4:4]
		d[0] += alpha * s[0]
		d[1] += alpha * s[1]
		d[2] += alpha * s[2]
		d[3] += alpha * s[3]
	}
	for i := range v {
		v[i] += alpha * x[i]
	}
}

// Scale computes v *= alpha.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of v and x.
func (v Vector) Dot(x Vector) float64 {
	if len(v) != len(x) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(x)))
	}
	var s float64
	for i := range v {
		s += v[i] * x[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Sub computes dst = a - b and returns dst (allocating when dst is nil).
func Sub(dst, a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	if dst == nil {
		dst = make(Vector, len(a))
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Argmax returns the index of the largest element; -1 for an empty vector.
func Argmax(v Vector) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Softmax writes the softmax of x into dst (which may alias x) using the
// max-subtraction trick for numerical stability.
func Softmax(dst, x Vector) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: Softmax length mismatch %d vs %d", len(dst), len(x)))
	}
	if len(x) == 0 {
		return
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// Tanh applies tanh element-wise, writing into dst (may alias x).
func Tanh(dst, x Vector) {
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
}

// TanhPrimeFromOutput returns the derivative of tanh given the tanh output y:
// d/dx tanh(x) = 1 - y².
func TanhPrimeFromOutput(y float64) float64 { return 1 - y*y }

// Clip bounds every element of v to [-c, c]. Used for gradient clipping in
// the RNN language model.
func Clip(v Vector, c float64) {
	for i, x := range v {
		if x > c {
			v[i] = c
		} else if x < -c {
			v[i] = -c
		}
	}
}
