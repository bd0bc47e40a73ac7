package checkpoint

import (
	"testing"

	"repro/internal/tensor"
)

func benchCheckpoint(n int) *Checkpoint {
	rng := tensor.NewRNG(1)
	params := make(tensor.Vector, n)
	rng.FillNormal(params, 0.05)
	return &Checkpoint{TaskName: "bench/task", Round: 10, Weight: 100, Params: params}
}

func benchMarshal(b *testing.B, enc Encoding) {
	c := benchCheckpoint(100_000)
	buf, err := c.Marshal(enc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalFloat64(b *testing.B) {
	benchMarshal(b, EncodingFloat64)
}

func BenchmarkMarshalQuant8(b *testing.B) {
	benchMarshal(b, EncodingQuant8)
}

func BenchmarkUnmarshalFloat64(b *testing.B) {
	c := benchCheckpoint(100_000)
	buf, err := c.Marshal(EncodingFloat64)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
