// Benchmarks regenerating the paper's Secure Aggregation and pace-steering
// figures (see DESIGN.md §4 for the index; the operational and learning
// figures run on the round engine and are held by shape tests) plus the
// ablations of DESIGN.md §6. Round performance is measured by
// `bash benchmark/run.sh`, not here. Run:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports figure-shape metrics via b.ReportMetric so
// the bench output doubles as a compact reproduction record.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/secagg"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// --- Figure/table benchmarks ---

func BenchmarkSecAggQuadratic(b *testing.B) {
	cases := []struct {
		n, dim   int
		dropRate float64
	}{
		{4, 128, 0}, {8, 128, 0}, {16, 128, 0}, {32, 128, 0}, {64, 128, 0}, {128, 128, 0},
		// Large vectors stress the mask-expansion path: the streaming PRG
		// must hold per-mask transients at O(chunk), not O(dim).
		{32, 4096, 0}, {128, 4096, 0},
		// The dropout axis: each dropped device forces a Shamir
		// reconstruction of its pairwise masking key at unmask time, so
		// recovery cost scales with dropRate × n.
		{32, 128, 0.1}, {32, 128, 0.25},
		{64, 128, 0.1}, {64, 128, 0.25},
		{128, 128, 0.1}, {128, 128, 0.25},
	}
	for _, bc := range cases {
		bc := bc
		name := fmt.Sprintf("group-%d", bc.n)
		if bc.dim != 128 {
			name = fmt.Sprintf("group-%d-dim-%d", bc.n, bc.dim)
		}
		if bc.dropRate > 0 {
			name = fmt.Sprintf("%s-drop-%d%%", name, int(bc.dropRate*100))
		}
		b.Run(name, func(b *testing.B) {
			cfg := secagg.Config{N: bc.n, T: bc.n/2 + 1, VectorLen: bc.dim}
			inputs := make(map[int][]float64, bc.n)
			for id := 1; id <= bc.n; id++ {
				v := make([]float64, bc.dim)
				for j := range v {
					v[j] = float64(id + j)
				}
				inputs[id] = v
			}
			var faults secagg.Faults
			switch {
			case bc.dropRate > 0:
				faults = sim.SecAggChurn(bc.n, cfg.T, sim.ChurnConfig{DropRate: bc.dropRate}, tensor.NewRNG(uint64(bc.n)))
			case bc.n >= 3:
				// Device 1 drops after dealing: one reconstruction at unmask.
				faults = secagg.Faults{1: secagg.DropMasked}
			}
			sum := make([]float64, bc.dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := secagg.Run(cfg, inputs, faults.Link, sum); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPaceSteering(b *testing.B) {
	steer := pacing.New(2 * time.Minute)
	rng := tensor.NewRNG(1)
	now := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	b.Run("small-population", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			steer.Suggest(100, 50, now, rng)
		}
	})
	b.Run("large-population", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			steer.Suggest(2_000_000, 300, now, rng)
		}
	})
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// BenchmarkInMemoryVsPersisted contrasts the paper's ephemeral in-memory
// aggregation against a design that writes each device update to
// persistent storage before aggregating.
func BenchmarkInMemoryVsPersisted(b *testing.B) {
	const dim = 10000
	update := &fedavg.Update{Delta: make(tensor.Vector, dim), Weight: 10}
	b.Run("in-memory", func(b *testing.B) {
		acc := fedavg.NewAccumulator(dim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acc.Add(update); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("persist-each-update", func(b *testing.B) {
		store, err := storage.NewFile(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		acc := fedavg.NewAccumulator(dim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A committed checkpoint is the store's: each round commits its own.
			ck := &checkpoint.Checkpoint{TaskName: "t", Round: int64(i), Params: update.Delta, Weight: update.Weight}
			if err := store.PutCheckpoint(ck); err != nil {
				b.Fatal(err)
			}
			if err := acc.Add(update); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOnlineAggregation contrasts folding updates in as they arrive
// (O(model) memory) against buffering all updates then reducing
// (O(devices × model) memory — the allocation column tells the story).
func BenchmarkOnlineAggregation(b *testing.B) {
	const dim, devices = 4000, 200
	mk := func(i int) *fedavg.Update {
		d := make(tensor.Vector, dim)
		d[i%dim] = 1
		return &fedavg.Update{Delta: d, Weight: 1}
	}
	b.Run("online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := fedavg.NewAccumulator(dim)
			for d := 0; d < devices; d++ {
				if err := acc.Add(mk(d)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := acc.Average(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("buffer-then-reduce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := make([]*fedavg.Update, 0, devices)
			for d := 0; d < devices; d++ {
				u := mk(d)
				// Buffering retains a private copy of every update, as a
				// log-based design would.
				cp := &fedavg.Update{Delta: u.Delta.Clone(), Weight: u.Weight}
				buf = append(buf, cp)
			}
			acc := fedavg.NewAccumulator(dim)
			for _, u := range buf {
				if err := acc.Add(u); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := acc.Average(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdateCompression contrasts the wire encodings of Sec. 11
// (Bandwidth): full float64 vs 8-bit quantized updates.
func BenchmarkUpdateCompression(b *testing.B) {
	rng := tensor.NewRNG(1)
	params := make(tensor.Vector, 100000)
	rng.FillNormal(params, 0.01)
	ck := &checkpoint.Checkpoint{TaskName: "t", Params: params}
	for _, enc := range []struct {
		name string
		e    checkpoint.Encoding
	}{{"float64", checkpoint.EncodingFloat64}, {"quant8", checkpoint.EncodingQuant8}} {
		enc := enc
		b.Run(enc.name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				buf, err := ck.Marshal(enc.e)
				if err != nil {
					b.Fatal(err)
				}
				size = len(buf)
			}
			b.ReportMetric(float64(size), "wire-bytes")
		})
	}
}

// BenchmarkClientUpdate measures one device's local training step.
func BenchmarkClientUpdate(b *testing.B) {
	fed, err := data.Blobs(data.BlobsConfig{Users: 1, ExamplesPer: 100, Features: 16, Classes: 4, TestSize: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	spec := nn.Spec{Kind: nn.KindMLP, Features: 16, Hidden: 32, Classes: 4, Seed: 1}
	m, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	global := make(tensor.Vector, m.NumParams())
	m.ReadParams(global)
	cfg := fedavg.ClientConfig{BatchSize: 20, Epochs: 1, LR: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fedavg.ClientUpdate(m, global, fed.Users[0], cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
