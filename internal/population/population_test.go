package population

import (
	"math"
	"testing"
	"time"
)

var noon = time.Date(2019, 3, 1, 14, 0, 0, 0, time.UTC) // 2pm: trough
var night = time.Date(2019, 3, 1, 2, 0, 0, 0, time.UTC) // 2am: peak

func fleet(t *testing.T, size int) *Model {
	t.Helper()
	m, err := New(Config{Size: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewDefaults(t *testing.T) {
	m := fleet(t, 100)
	cfg := m.cfg
	if cfg.DiurnalRatio != 4 || cfg.NightDropout != 0.06 || cfg.DayDropout != 0.10 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if len(m.Devices) != 100 {
		t.Fatalf("fleet size %d", len(m.Devices))
	}
}

func TestNewInvalid(t *testing.T) {
	if _, err := New(Config{Size: 0}); err == nil {
		t.Fatal("zero size must fail")
	}
	if _, err := New(Config{Size: 1, DiurnalRatio: 0.5}); err == nil {
		t.Fatal("ratio < 1 must fail")
	}
	if _, err := New(Config{Size: 1, PeakAvailability: 2}); err == nil {
		t.Fatal("availability > 1 must fail")
	}
}

func TestDiurnalSwingIs4x(t *testing.T) {
	m := fleet(t, 10)
	peak := m.Availability(night)
	trough := m.Availability(noon)
	ratio := peak / trough
	if math.Abs(ratio-4) > 0.2 {
		t.Fatalf("peak/trough = %v, want ≈ 4", ratio)
	}
	if peak <= 0 || peak > 1 || trough <= 0 {
		t.Fatalf("availabilities out of range: %v / %v", peak, trough)
	}
}

func TestAvailabilityContinuous(t *testing.T) {
	m := fleet(t, 10)
	prev := m.Availability(night)
	for h := 1; h <= 48; h++ {
		cur := m.Availability(night.Add(time.Duration(h) * time.Hour))
		if math.Abs(cur-prev) > 0.05 {
			t.Fatalf("availability jumped %v -> %v at hour %d", prev, cur, h)
		}
		prev = cur
	}
}

func TestDropoutHigherByDay(t *testing.T) {
	m := fleet(t, 10)
	day := m.DropoutProb(noon)
	nite := m.DropoutProb(night)
	if day <= nite {
		t.Fatalf("day dropout %v should exceed night %v", day, nite)
	}
	if nite < 0.05 || day > 0.12 {
		t.Fatalf("dropout outside paper band [6%%,10%%]: night=%v day=%v", nite, day)
	}
}

func TestSpeedLognormal(t *testing.T) {
	m := fleet(t, 5000)
	var logSum, logSq float64
	for _, d := range m.Devices {
		if d.Speed <= 0 {
			t.Fatal("non-positive speed")
		}
		l := math.Log(d.Speed)
		logSum += l
		logSq += l * l
	}
	n := float64(len(m.Devices))
	mean := logSum / n
	sd := math.Sqrt(logSq/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("log-speed mean %v, want ≈ 0", mean)
	}
	if math.Abs(sd-0.35) > 0.05 {
		t.Fatalf("log-speed sd %v, want ≈ 0.35", sd)
	}
}

func TestTrainDuration(t *testing.T) {
	m := fleet(t, 1)
	d := &Device{Speed: 2}
	got := m.TrainDuration(d, 100, time.Millisecond)
	if got != 50*time.Millisecond {
		t.Fatalf("TrainDuration = %v, want 50ms", got)
	}
	slow := &Device{Speed: 0}
	if m.TrainDuration(slow, 1, time.Millisecond) < time.Hour {
		t.Fatal("zero-speed device should effectively never finish")
	}
}

func TestDeterministicFleet(t *testing.T) {
	a, _ := New(Config{Size: 50, Seed: 9})
	b, _ := New(Config{Size: 50, Seed: 9})
	for i := range a.Devices {
		if a.Devices[i].Speed != b.Devices[i].Speed {
			t.Fatal("same seed must give same fleet")
		}
	}
}
