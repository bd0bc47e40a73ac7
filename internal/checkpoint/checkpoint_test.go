package checkpoint

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func sample() *Checkpoint {
	return &Checkpoint{
		TaskName: "population/task-1",
		Round:    42,
		Weight:   128,
		Params:   tensor.Vector{-1.5, 0, 0.25, 3.125, -2.75},
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	c := sample()
	b, err := c.Marshal(EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TaskName != c.TaskName || got.Round != c.Round || got.Weight != c.Weight {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, c)
	}
	for i := range c.Params {
		if got.Params[i] != c.Params[i] {
			t.Fatalf("param %d: %v != %v", i, got.Params[i], c.Params[i])
		}
	}
}

func TestQuant8RoundTripApproximate(t *testing.T) {
	c := sample()
	b, err := c.Marshal(EncodingQuant8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := c.Params.Range()
	tol := (hi - lo) / 255 // one quantization step
	for i := range c.Params {
		if math.Abs(got.Params[i]-c.Params[i]) > tol {
			t.Fatalf("param %d: %v vs %v exceeds quantization tolerance %v", i, got.Params[i], c.Params[i], tol)
		}
	}
}

func TestQuant8ConstantVector(t *testing.T) {
	c := &Checkpoint{TaskName: "t", Params: tensor.Vector{2, 2, 2}}
	b, err := c.Marshal(EncodingQuant8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got.Params {
		if p != 2 {
			t.Fatalf("constant vector decoded to %v", got.Params)
		}
	}
}

func TestQuant8IsSmaller(t *testing.T) {
	c := &Checkpoint{TaskName: "t", Params: make(tensor.Vector, 10000)}
	full, _ := c.Marshal(EncodingFloat64)
	q, _ := c.Marshal(EncodingQuant8)
	if len(q) >= len(full)/6 {
		t.Fatalf("quant8 size %d not ≪ float64 size %d", len(q), len(full))
	}
}

func TestEmptyParams(t *testing.T) {
	c := &Checkpoint{TaskName: "empty", Round: 1}
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		b, err := c.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Params) != 0 || got.TaskName != "empty" {
			t.Fatalf("empty round-trip: %+v", got)
		}
	}
}

// hostileCheckpoints are buffers both decoders must refuse.
func hostileCheckpoints() map[string][]byte {
	good, _ := sample().Marshal(EncodingFloat64)
	wide := &Checkpoint{TaskName: "t", Weight: 1, Params: make(tensor.Vector, 256)}
	junk, _ := wide.Marshal(EncodingFloat64)
	return map[string][]byte{
		"empty":          {},
		"short":          good[:8],
		"bad magic":      append([]byte{0, 0, 0, 0}, good[4:]...),
		"bad version":    func() []byte { b := append([]byte(nil), good...); b[4] = 99; return b }(),
		"bad encoding":   func() []byte { b := append([]byte(nil), good...); b[5] = 99; return b }(),
		"truncated body": good[:len(good)-3],
		"trailing bytes": append(junk, make([]byte, 1000)...),
		// Updates arrive from devices: a tiny buffer whose header claims 2⁴⁰
		// params must error before allocating O(claimed) memory. (If the
		// count were trusted, this test would OOM, not merely fail.)
		"hostile count, float64": rawCheckpoint(EncodingFloat64, 3, 1, 1<<40, make([]byte, 64)),
		"hostile count, quant8":  rawCheckpoint(EncodingQuant8, 3, 1, 1<<40, make([]byte, 64)),
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for name, b := range hostileCheckpoints() {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestUnmarshalHostileParamCount: a count past the bytes left is refused
// however far past, for both encodings and even when one element is missing.
func TestUnmarshalHostileParamCount(t *testing.T) {
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		for _, n := range []int{6, 1 << 20, 1 << 62} {
			b := rawCheckpoint(enc, 4, 1, n, foldSection(enc, 5, 1, false))
			if _, err := Unmarshal(b); err == nil {
				t.Errorf("encoding %d: count %d over 5 params decoded cleanly", enc, n)
			}
		}
	}
}

// TestQuant8RefusesNonFinite: a vector Quant8 cannot represent — a NaN or an
// infinity anywhere, or finite values whose range overflows — is refused
// with an error instead of decoding as all-NaN or, for a NaN after the first
// element, as a finite wrong value. Float64 still round-trips it bit for bit.
func TestQuant8RefusesNonFinite(t *testing.T) {
	const max = math.MaxFloat64
	cases := []tensor.Vector{{-max, 0, max}, {0, max, -max}, {max, -max, 0}}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, tensor.Vector{bad, 1, 2}, tensor.Vector{1, bad, 2}, tensor.Vector{1, 2, bad})
	}
	for _, v := range cases {
		c := &Checkpoint{TaskName: "t", Weight: 1, Params: v}
		if b, err := c.Marshal(EncodingQuant8); err == nil {
			back, _ := Unmarshal(b)
			t.Errorf("quant8 %v: marshaled without error, decodes as %v", v, back.Params)
		}
		b, err := c.Marshal(EncodingFloat64)
		if err != nil {
			t.Fatalf("float64 %v: %v", v, err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if math.Float64bits(back.Params[i]) != math.Float64bits(v[i]) {
				t.Fatalf("float64 %v decoded as %v", v, back.Params)
			}
		}
	}
}

// TestQuant8TinyRange: below a range of about 1.4e−306, where 255/(hi − lo)
// overflows, levels still decode within (hi − lo)/510 of each param (the
// bound on Meta.AccumulateParams), give or take the subnormal grid's
// rounding, instead of coming from NaN and Inf converted to bytes.
func TestQuant8TinyRange(t *testing.T) {
	for _, v := range []tensor.Vector{{0, 1e-310}, {1e-310, -1e-310, 0}} {
		b, err := (&Checkpoint{TaskName: "t", Weight: 1, Params: v}).Marshal(EncodingQuant8)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := v.Range()
		for i := range v {
			if d := math.Abs(back.Params[i] - v[i]); d > (hi-lo)/510+2*math.SmallestNonzeroFloat64 {
				t.Errorf("%v decodes as %v: param %d off by %v, bound %v", v, back.Params, i, d, (hi-lo)/510)
			}
		}
	}
}

func TestMarshalBadEncoding(t *testing.T) {
	if _, err := sample().Marshal(Encoding(0)); err == nil {
		t.Fatal("expected error for unknown encoding")
	}
}

func TestClone(t *testing.T) {
	c := sample()
	d := c.Clone()
	d.Params[0] = 999
	if c.Params[0] == 999 {
		t.Fatal("Clone must deep-copy params")
	}
}

// Property: float64 encoding round-trips arbitrary finite parameter vectors.
func TestFloat64RoundTripProperty(t *testing.T) {
	f := func(name string, round int64, weight float64, params []float64) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		if math.IsNaN(weight) {
			return true
		}
		for _, p := range params {
			if math.IsNaN(p) {
				return true
			}
		}
		c := &Checkpoint{TaskName: name, Round: round, Weight: weight, Params: params}
		b, err := c.Marshal(EncodingFloat64)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		if got.TaskName != name || got.Round != round || got.Weight != weight || len(got.Params) != len(params) {
			return false
		}
		for i := range params {
			if got.Params[i] != params[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quant8 error is bounded by one quantization step everywhere.
func TestQuant8ErrorBoundProperty(t *testing.T) {
	f := func(params []float64) bool {
		clean := make(tensor.Vector, 0, len(params))
		for _, p := range params {
			if !math.IsNaN(p) && !math.IsInf(p, 0) && math.Abs(p) < 1e9 {
				clean = append(clean, p)
			}
		}
		c := &Checkpoint{TaskName: "q", Params: clean}
		b, err := c.Marshal(EncodingQuant8)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		lo, hi := clean.Range()
		tol := (hi-lo)/255 + 1e-12
		for i := range clean {
			if math.Abs(got.Params[i]-clean[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
