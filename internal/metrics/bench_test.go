package metrics

import (
	"testing"
	"time"

	"repro/internal/tensor"
)

func BenchmarkQuantileAdd(b *testing.B) {
	q, err := NewQuantile(0.9)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Add(rng.Float64())
	}
}

// BenchmarkTelemetryOverhead prices the instrumentation primitives the
// report hot loop and round tracer use. The contract for the hot loop is
// counter/inc only — 0 allocs/op and single-digit nanoseconds — while
// summary observation (mutex + three P² updates) is reserved for per-round
// and per-seal events.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := Default.Counter("bench_counter_total")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-inc-parallel", func(b *testing.B) {
		c := Default.Counter("bench_counter_par_total")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("gauge-set", func(b *testing.B) {
		g := Default.Gauge("bench_gauge")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("summary-observe", func(b *testing.B) {
		s := Default.Summary("bench_summary_seconds")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Observe(float64(i&1023) / 1024)
		}
	})
	b.Run("summary-observe-duration", func(b *testing.B) {
		s := Default.Summary("bench_summary_dur_seconds")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ObserveDuration(time.Duration(i&1023) * time.Microsecond)
		}
	})
	b.Run("registry-lookup", func(b *testing.B) {
		// Priced so reviewers can see why hot paths cache the pointer
		// instead of calling Counter(name) per event.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Default.Counter("bench_lookup_total").Inc()
		}
	})
}
