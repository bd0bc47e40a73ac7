package checkpoint

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// TestParseMetaMatchesUnmarshal: the zero-allocation header parse must see
// exactly what Unmarshal sees.
func TestParseMetaMatchesUnmarshal(t *testing.T) {
	c := sample()
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		b, err := c.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ParseMeta(b)
		if err != nil {
			t.Fatal(err)
		}
		if m.TaskName(b) != c.TaskName || m.Round != c.Round || m.Weight != c.Weight ||
			m.NumParams != len(c.Params) || m.Encoding != enc {
			t.Fatalf("meta mismatch for encoding %d: %+v", enc, m)
		}
	}
}

// TestParseMetaRejectsWhatUnmarshalRejects: every hostile input the full
// decoder refuses, the header parse must refuse too — the Reporting path
// relies on ParseMeta alone for bounds safety. (TestUnmarshalErrors runs
// Unmarshal over the same cases.) Bytes after the parameters are refused,
// as every other walk refuses them.
func TestParseMetaRejectsWhatUnmarshalRejects(t *testing.T) {
	for name, b := range hostileCheckpoints() {
		if _, err := ParseMeta(b); err == nil {
			t.Errorf("%s: ParseMeta accepted what Unmarshal rejects", name)
		}
	}
}

// TestAccumulateParamsMatchesUnmarshalAdd: the fused decode-and-accumulate
// must produce bit-identical sums to decode-then-Axpy, for both encodings.
func TestAccumulateParamsMatchesUnmarshalAdd(t *testing.T) {
	c := &Checkpoint{TaskName: "acc", Weight: 3,
		Params: tensor.Vector{-2.5, 0, 1.25, 7.75, -0.125, 3}}
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		b, err := c.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		base := tensor.Vector{10, -1, 0.5, 2, 0, -4}

		want := base.Clone()
		decoded, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		want.Axpy(1, decoded.Params)

		got := base.Clone()
		m, err := ParseMeta(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AccumulateParams(b, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("encoding %d param %d: fused %v != reference %v", enc, i, got[i], want[i])
			}
		}
	}
}

// TestAccumulateParamsDimMismatchLeavesSumUntouched: a stripe must never
// see a half-applied update.
func TestAccumulateParamsDimMismatchLeavesSumUntouched(t *testing.T) {
	c := sample()
	b, _ := c.Marshal(EncodingFloat64)
	m, err := ParseMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	sum := tensor.Vector{1, 2, 3} // wrong dim
	if err := m.AccumulateParams(b, sum); err == nil {
		t.Fatal("dim mismatch must error")
	}
	if sum[0] != 1 || sum[1] != 2 || sum[2] != 3 {
		t.Fatalf("sum mutated on error: %v", sum)
	}
}

// TestDecodeParamsIntoOversizedBuffer: the pooled-buffer path decodes into
// a reslice of a larger recycled buffer.
func TestDecodeParamsIntoOversizedBuffer(t *testing.T) {
	c := sample()
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		b, _ := c.Marshal(enc)
		m, err := ParseMeta(b)
		if err != nil {
			t.Fatal(err)
		}
		buf := make(tensor.Vector, len(c.Params)+10)
		for i := range buf {
			buf[i] = 99 // dirty pooled buffer
		}
		if err := m.DecodeParams(b, buf); err != nil {
			t.Fatal(err)
		}
		ref, _ := Unmarshal(b)
		for i := range ref.Params {
			if buf[i] != ref.Params[i] {
				t.Fatalf("encoding %d param %d: %v != %v", enc, i, buf[i], ref.Params[i])
			}
		}
		if err := m.DecodeParams(b, buf[:1]); err == nil {
			t.Fatal("undersized buffer must error")
		}
	}
}

// Property: the fused quant8 accumulate respects the same one-step error
// bound as the round-trip (it IS the round-trip, with the add fused in).
func TestQuant8AccumulateErrorBoundProperty(t *testing.T) {
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
		sum := make(tensor.Vector, len(clean))
		if err := m.AccumulateParams(b, sum); err != nil {
			return false
		}
		lo, hi := clean.Range()
		tol := (hi-lo)/255 + 1e-12
		for i := range clean {
			if math.Abs(sum[i]-clean[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
