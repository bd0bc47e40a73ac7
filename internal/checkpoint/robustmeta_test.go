package checkpoint

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// TestParamNormMatchesDecodedNorm: the streaming norm must equal the norm
// of the decoded vector for both encodings (bit-identical: same
// dequantization arithmetic, same summation order).
func TestParamNormMatchesDecodedNorm(t *testing.T) {
	c := &Checkpoint{TaskName: "norm", Weight: 2,
		Params: tensor.Vector{-3, 0.5, 1.25, -0.125, 8, 0}}
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		b, err := c.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ParseMeta(b)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := Unmarshal(b)
		want := ref.Params.Norm2()
		if got := m.ParamNorm(b); got != want {
			t.Fatalf("encoding %d: ParamNorm = %v, decoded norm = %v", enc, got, want)
		}
	}
}

// TestAccumulateParamsScaledMatchesDecodeAxpy: the fused scaled fold must
// match decode-then-Axpy(scale) for both encodings.
func TestAccumulateParamsScaledMatchesDecodeAxpy(t *testing.T) {
	c := &Checkpoint{TaskName: "scaled", Weight: 3,
		Params: tensor.Vector{-2.5, 0, 1.25, 7.75, -0.125, 3}}
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		b, err := c.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ParseMeta(b)
		if err != nil {
			t.Fatal(err)
		}
		base := tensor.Vector{10, -1, 0.5, 2, 0, -4}
		scale := 0.375 // exactly representable: scaled fold is bit-identical

		want := base.Clone()
		decoded, _ := Unmarshal(b)
		want.Axpy(scale, decoded.Params)

		got := base.Clone()
		if err := m.AccumulateParamsScaled(b, got, scale); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("encoding %d param %d: fused %v != reference %v", enc, i, got[i], want[i])
			}
		}
	}
}

// TestAccumulateParamsScaledDimMismatch: like AccumulateParams, a
// dimension mismatch must error before touching the sum.
func TestAccumulateParamsScaledDimMismatch(t *testing.T) {
	c := sample()
	b, _ := c.Marshal(EncodingFloat64)
	m, err := ParseMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	sum := tensor.Vector{1, 2, 3}
	if err := m.AccumulateParamsScaled(b, sum, 0.5); err == nil {
		t.Fatal("dim mismatch must error")
	}
	if sum[0] != 1 || sum[1] != 2 || sum[2] != 3 {
		t.Fatalf("sum mutated on error: %v", sum)
	}
}

// Property: every coordinate a per-update robust reduce sees after Quant8
// decode is within half a quantization step of the device's true value —
// the error bound documented on AccumulateParams that QuantSafe policies
// opt into.
func TestQuant8HalfStepErrorBoundProperty(t *testing.T) {
	f := func(params []float64) bool {
		clean := make(tensor.Vector, 0, len(params))
		for _, p := range params {
			if !math.IsNaN(p) && !math.IsInf(p, 0) && math.Abs(p) < 1e9 {
				clean = append(clean, p)
			}
		}
		c := &Checkpoint{TaskName: "q", Weight: 1, Params: clean}
		b, err := c.Marshal(EncodingQuant8)
		if err != nil {
			return false
		}
		m, err := ParseMeta(b)
		if err != nil {
			return false
		}
		dst := make(tensor.Vector, len(clean))
		if err := m.DecodeParams(b, dst); err != nil {
			return false
		}
		lo, hi := clean.Range()
		halfStep := (hi-lo)/510 + 1e-12 // step/2 plus float slack
		for i := range clean {
			if math.Abs(dst[i]-clean[i]) > halfStep {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
