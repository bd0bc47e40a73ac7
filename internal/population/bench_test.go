package population

import (
	"testing"
	"time"
)

// BenchmarkAvailability is what a fleet device pays per wake-up.
func BenchmarkAvailability(b *testing.B) {
	m, _ := New(Config{Size: 10, Seed: 1})
	at := time.Date(2019, 3, 1, 14, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		m.Availability(at)
	}
}
