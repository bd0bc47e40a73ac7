package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/tensor"
)

// useAVX2 is internal/tensor's fold switch, which the differential tests
// below flip to run once per fold path this host has.
//
//go:linkname useAVX2 repro/internal/tensor.useAVX2
var useAVX2 bool

// eachFoldPath runs f on the scalar loops ("generic") and, where
// tensor.FoldKernel says the CPU has them, on the AVX2 kernels, then
// restores the host's choice.
func eachFoldPath(f func(path string)) {
	host := useAVX2
	defer func() { useAVX2 = host }()
	for _, path := range []string{"generic", "avx2"} {
		if path == "generic" || tensor.FoldKernel == path {
			useAVX2 = path == "avx2"
			f(path)
		}
	}
}

// kernelLens hit the kernels' 4-wide block loop and scalar tail alone and
// together.
var kernelLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 65535, 65537}

// v2Header is the checkpoint header in order, each field with its wire
// kind. rawCheckpoint writes and naiveHeader reads bytes along it with
// encoding/binary, sharing nothing with the walk, and DESIGN.md §2 prints it
// (TestDesignCheckpointTable).
var v2Header = [...]struct{ field, kind string }{
	{"magic, `FLCP`", "u32"}, {"format version, 2", "u8"}, {"encoding, a row below", "u8"},
	{"task name", "bytes"}, {"round", "varint"}, {"weight", "f64"}, {"parameter count", "uvarint"},
}

// rawCheckpoint lays out a checkpoint by hand around an arbitrary parameter
// section, so float bit patterns (NaN payloads, denormals) and Quant8
// headers Marshal would never emit (hi < lo, NaN) reach the decoders.
func rawCheckpoint(enc Encoding, nameLen int, weight float64, n int, section []byte) []byte {
	vals := [len(v2Header)]uint64{0x464C4350, 2, uint64(enc), uint64(nameLen), 7, math.Float64bits(weight), uint64(n)}
	var b []byte
	for i, f := range v2Header {
		switch f.kind {
		case "u32":
			b = binary.BigEndian.AppendUint32(b, uint32(vals[i]))
		case "u8":
			b = append(b, byte(vals[i]))
		case "f64":
			b = binary.BigEndian.AppendUint64(b, vals[i])
		case "varint":
			b = binary.AppendVarint(b, int64(vals[i]))
		case "uvarint":
			b = binary.AppendUvarint(b, vals[i])
		case "bytes":
			b = append(binary.AppendUvarint(b, vals[i]), strings.Repeat("n", int(vals[i]))...)
		}
	}
	return append(b, section...)
}

// naiveHeader reads a header along v2Header: each field's value (a varint
// zigzag-decoded, an f64 as its bits, bytes as their length) and bytes, and
// the parameter section after the header.
func naiveHeader(b []byte) (vals [len(v2Header)]uint64, raw [len(v2Header)][]byte, section []byte) {
	for i, f := range v2Header {
		var n int
		switch f.kind {
		case "u32":
			vals[i], n = uint64(binary.BigEndian.Uint32(b)), 4
		case "u8":
			vals[i], n = uint64(b[0]), 1
		case "f64":
			vals[i], n = binary.BigEndian.Uint64(b), 8
		case "varint":
			x, k := binary.Varint(b)
			vals[i], n = uint64(x), k
		case "uvarint", "bytes":
			vals[i], n = binary.Uvarint(b)
			if f.kind == "bytes" {
				n += int(vals[i])
			}
		}
		raw[i], b = b[:n], b[n:]
	}
	return vals, raw, b
}

// naiveParams is the reference decoder: one element at a time, the
// per-element expressions the fused paths had before they were kernels,
// sharing nothing with ParseMeta or internal/tensor.
func naiveParams(b []byte) tensor.Vector {
	vals, _, sec := naiveHeader(b)
	out := make(tensor.Vector, vals[len(vals)-1])
	switch Encoding(vals[2]) {
	case EncodingFloat64:
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(sec[8*i:]))
		}
	case EncodingQuant8:
		lo := math.Float64frombits(binary.BigEndian.Uint64(sec))
		hi := math.Float64frombits(binary.BigEndian.Uint64(sec[8:]))
		step := 0.0
		if hi > lo {
			step = (hi - lo) / 255
		}
		for i := range out {
			out[i] = lo + float64(sec[16+i])*step
		}
	}
	return out
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkFoldMatchesNaive compares every consumer of a parameter section —
// Unmarshal, DecodeParams, AccumulateParams, AccumulateParamsScaled,
// ParamNorm — with naiveParams plus a serial loop, by bit pattern.
func checkFoldMatchesNaive(t *testing.T, b []byte, start, scale float64) {
	t.Helper()
	m, err := ParseMeta(b)
	if err != nil {
		t.Fatalf("ParseMeta: %v", err)
	}
	ref := naiveParams(b)
	if m.NumParams != len(ref) {
		t.Fatalf("NumParams %d, reference %d", m.NumParams, len(ref))
	}
	same := func(what string, got, want tensor.Vector) {
		t.Helper()
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s: enc %d n=%d elem %d: %v (%x), want %v (%x)", what, m.Encoding, len(want), i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	c, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(c.Params) != len(ref) {
		t.Fatalf("Unmarshal decoded %d params, want %d", len(c.Params), len(ref))
	}
	same("Unmarshal", c.Params, ref)

	// One element past NumParams must survive a decode into a larger buffer.
	dst := make(tensor.Vector, len(ref)+1)
	dst[len(ref)] = 42
	if err := m.DecodeParams(b, dst); err != nil {
		t.Fatal(err)
	}
	same("DecodeParams", dst, ref)
	if dst[len(ref)] != 42 {
		t.Fatal("DecodeParams wrote past NumParams")
	}

	sum0 := make(tensor.Vector, len(ref))
	for i := range sum0 {
		sum0[i] = start + float64(i%17)
	}
	got, want := sum0.Clone(), sum0.Clone()
	if err := m.AccumulateParams(b, got); err != nil {
		t.Fatal(err)
	}
	var ss float64
	for i, x := range ref {
		want[i] += x
		ss += x * x
	}
	same("AccumulateParams", got, want)

	got, want = sum0.Clone(), sum0.Clone()
	if err := m.AccumulateParamsScaled(b, got, scale); err != nil {
		t.Fatal(err)
	}
	for i, x := range ref {
		want[i] += scale * x
	}
	same("AccumulateParamsScaled", got, want)

	if norm := m.ParamNorm(b); !sameFloat(norm, math.Sqrt(ss)) {
		t.Fatalf("ParamNorm: enc %d n=%d: %v, want %v", m.Encoding, len(ref), norm, math.Sqrt(ss))
	}
}

// foldSection builds an n-parameter section for enc from seed: normal
// float64 values, or a lo/hi header and level bytes. With edge set, float64
// gets ±Inf, NaN, −0 and denormals in front, and Quant8 gets hi == lo.
func foldSection(enc Encoding, n int, seed uint64, edge bool) []byte {
	rng := tensor.NewRNG(seed)
	if enc == EncodingQuant8 {
		lo, hi := -1.5, 2.25
		if edge {
			hi = lo
		}
		sec := binary.BigEndian.AppendUint64(nil, math.Float64bits(lo))
		sec = binary.BigEndian.AppendUint64(sec, math.Float64bits(hi))
		for i := 0; i < n; i++ {
			sec = append(sec, byte(rng.Uint64()))
		}
		return sec
	}
	v := make(tensor.Vector, n)
	rng.FillNormal(v, 100)
	if edge {
		copy(v, []float64{math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.Copysign(0, -1),
			math.NaN(), -math.SmallestNonzeroFloat64 * 3})
	}
	sec := make([]byte, 8*n)
	v.PutBE(sec)
	return sec
}

// FuzzFoldMatchesUnmarshal is the differential target for the fused fold
// (ROADMAP item 2(c)): whatever the encoding, the alignment the task name
// leaves the parameter section on, the bit patterns in it, the accumulator's
// starting value and the clip scale, the kernels and the naive loops agree.
func FuzzFoldMatchesUnmarshal(f *testing.F) {
	for i, n := range kernelLens {
		f.Add(byte(EncodingFloat64), uint16(i), foldSection(EncodingFloat64, n, uint64(n), i%2 == 0), 0.5, 0.3)
		f.Add(byte(EncodingQuant8), uint16(i), foldSection(EncodingQuant8, n, uint64(n), i%3 == 0), -2.0, 0.7)
	}
	f.Add(byte(EncodingQuant8), uint16(300), foldSection(EncodingQuant8, 9, 1, true), math.Inf(1), math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, encByte byte, nameLen uint16, section []byte, start, scale float64) {
		// A section is whole elements: the walk refuses trailing bytes.
		enc, n := Encoding(2-encByte%2), len(section)/8
		if enc == EncodingFloat64 {
			section = section[:8*n]
		} else {
			for len(section) < 16 {
				section = append(section, 0)
			}
			n = len(section) - 16
		}
		b := rawCheckpoint(enc, int(nameLen%301), 1, n, section)
		// No subtests here: a t.Run per input halves the fuzzer's
		// executions.
		eachFoldPath(func(path string) {
			defer func() {
				if t.Failed() {
					t.Logf("on the %s fold path", path)
				}
			}()
			checkFoldMatchesNaive(t, b, start, scale)
		})
	})
}

// TestMarshalUnmarshalKernelLengths: Marshal's encode kernels and the decode
// kernels round-trip at every block/tail length — float64 bit for bit,
// Quant8 within half a step — and what Marshal emits folds like the naive
// loops say, at every task-name alignment.
func TestMarshalUnmarshalKernelLengths(t *testing.T) {
	eachFoldPath(func(path string) { t.Run(path, testMarshalUnmarshalKernelLengths) })
}

func testMarshalUnmarshalKernelLengths(t *testing.T) {
	for i, n := range kernelLens {
		c := &Checkpoint{TaskName: strings.Repeat("t", i), Round: 3, Weight: 2, Params: make(tensor.Vector, n)}
		tensor.NewRNG(uint64(n)).FillNormal(c.Params, 4)
		for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
			b, err := c.Marshal(enc)
			if err != nil {
				t.Fatal(err)
			}
			checkFoldMatchesNaive(t, b, 1, 0.25)
			back, err := Unmarshal(b)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := c.Params.Range()
			tol := 0.0
			if enc == EncodingQuant8 {
				tol = (hi-lo)/510 + 1e-12
			}
			for j, want := range c.Params {
				if math.Abs(back.Params[j]-want) > tol {
					t.Fatalf("n=%d enc %d param %d: %v, want %v ± %v", n, enc, j, back.Params[j], want, tol)
				}
			}
		}
	}
}

// foldVariants are the fold paths the Reporting edge runs per device.
var foldVariants = []struct {
	name string
	run  func(m Meta, b []byte, sum tensor.Vector)
}{
	{"add", func(m Meta, b []byte, sum tensor.Vector) { _ = m.AccumulateParams(b, sum) }},
	{"scaled", func(m Meta, b []byte, sum tensor.Vector) { _ = m.AccumulateParamsScaled(b, sum, 0.5) }},
	{"set", func(m Meta, b []byte, sum tensor.Vector) { _ = m.DecodeParams(b, sum) }},
}

var foldEncodings = []struct {
	name string
	enc  Encoding
}{{"f64", EncodingFloat64}, {"q8", EncodingQuant8}}

// TestFoldAllocs: no fold variant allocates — in particular the 2 KB Quant8
// table stays on the kernel's stack — and neither does ParseMeta, while
// Marshal makes its one buffer, so alloc_mb_per_round cannot regress
// silently through the per-device hot loop.
func TestFoldAllocs(t *testing.T) {
	eachFoldPath(func(path string) { t.Run(path, testFoldAllocs) })
}

func testFoldAllocs(t *testing.T) {
	const n = 4096
	sum := make(tensor.Vector, n)
	c := &Checkpoint{TaskName: "bench/round", Round: 300, Weight: 1, Params: make(tensor.Vector, n)}
	for _, e := range foldEncodings {
		b := rawCheckpoint(e.enc, 5, 1, n, foldSection(e.enc, n, 1, false))
		m, err := ParseMeta(b)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { _, _ = ParseMeta(b) }); a != 0 {
			t.Errorf("%s/parse: %v allocs, want 0", e.name, a)
		}
		if a := testing.AllocsPerRun(20, func() { _, _ = c.Marshal(e.enc) }); a != marshalAllocs {
			t.Errorf("%s/marshal: %v allocs, want %d", e.name, a, marshalAllocs)
		}
		for _, v := range foldVariants {
			if a := testing.AllocsPerRun(20, func() { v.run(m, b, sum) }); a != 0 {
				t.Errorf("%s/%s: %v allocs per fold, want 0", e.name, v.name, a)
			}
		}
		if a := testing.AllocsPerRun(20, func() { _ = m.ParamNorm(b) }); a != 0 {
			t.Errorf("%s/norm: %v allocs, want 0", e.name, a)
		}
	}
}

// BenchmarkFold measures one device update of the benchmark's dimension
// folding into a stripe: cache-hot (one source buffer) and cold (sources
// rotating through 32 MB, as K distinct reports do in a round), on each
// fold path this host has.
func BenchmarkFold(b *testing.B) {
	eachFoldPath(func(path string) { b.Run(path, benchmarkFold) })
}

func benchmarkFold(b *testing.B) {
	const n, coldBytes = 65536, 32 << 20
	sum := make(tensor.Vector, n)
	for _, e := range foldEncodings {
		one := rawCheckpoint(e.enc, 10, 1, n, foldSection(e.enc, n, 1, false))
		srcs := [][]byte{one}
		for len(srcs)*len(one) < coldBytes {
			srcs = append(srcs, append([]byte(nil), one...))
		}
		m, err := ParseMeta(one)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range foldVariants {
			for _, temp := range []struct {
				name string
				k    int
			}{{"hot", 1}, {"cold", len(srcs)}} {
				b.Run(fmt.Sprintf("%s/%s/%s", e.name, v.name, temp.name), func(b *testing.B) {
					b.SetBytes(int64(len(one)))
					for i := 0; i < b.N; i++ {
						v.run(m, srcs[i%temp.k], sum)
					}
				})
			}
		}
	}
}
