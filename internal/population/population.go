// Package population models the simulated device fleet: diurnal
// availability (devices are "more likely idle and charging at night", with
// a 4× swing between low and high participation, Sec. 9), eligibility
// churn, drop-out rates that are higher by day than by night (Fig. 7), and
// lognormal device speed heterogeneity (the stragglers of Fig. 8).
//
// Every paper figure we reproduce is driven by this model, so its
// parameters default to the paper's reported values.
package population

import (
	"fmt"
	"math"
	"time"

	"repro/internal/tensor"
)

// Device is one simulated phone.
type Device struct {
	ID int
	// Speed is a relative compute-speed multiplier (1 = median); training
	// time divides by it. Lognormal across the fleet.
	Speed float64
}

// Config parametrizes the fleet. Zero values take paper-calibrated
// defaults via New.
type Config struct {
	Size int
	// PeakAvailability is the fraction of the fleet available at the
	// nightly peak.
	PeakAvailability float64
	// DiurnalRatio is the peak/trough availability ratio (paper: 4×).
	DiurnalRatio float64
	// PeakHour is the local hour of maximum availability (devices idle and
	// charging — night).
	PeakHour float64
	// NightDropout and DayDropout are per-round drop-out probabilities at
	// the trough and peak of user activity (paper: 6%–10%).
	NightDropout, DayDropout float64
	// SpeedSigma is the sigma of the lognormal speed distribution.
	SpeedSigma float64
	Seed       uint64
}

// Model is an instantiated fleet.
type Model struct {
	cfg     Config
	Devices []Device
	// amplitude is derived from DiurnalRatio: ratio = (1+a)/(1−a).
	amplitude float64
}

// New builds a fleet, applying paper defaults for zero config fields.
func New(cfg Config) (*Model, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("population: Size must be positive, got %d", cfg.Size)
	}
	if cfg.PeakAvailability == 0 {
		cfg.PeakAvailability = 0.12
	}
	if cfg.DiurnalRatio == 0 {
		cfg.DiurnalRatio = 4
	}
	if cfg.DiurnalRatio < 1 {
		return nil, fmt.Errorf("population: DiurnalRatio must be ≥ 1, got %v", cfg.DiurnalRatio)
	}
	if cfg.PeakHour == 0 {
		cfg.PeakHour = 2 // 2am local
	}
	if cfg.NightDropout == 0 {
		cfg.NightDropout = 0.06
	}
	if cfg.DayDropout == 0 {
		cfg.DayDropout = 0.10
	}
	if cfg.SpeedSigma == 0 {
		cfg.SpeedSigma = 0.35
	}
	if cfg.PeakAvailability < 0 || cfg.PeakAvailability > 1 {
		return nil, fmt.Errorf("population: PeakAvailability %v outside [0,1]", cfg.PeakAvailability)
	}

	m := &Model{cfg: cfg}
	m.amplitude = (cfg.DiurnalRatio - 1) / (cfg.DiurnalRatio + 1)

	rng := tensor.NewRNG(cfg.Seed)
	m.Devices = make([]Device, cfg.Size)
	for i := range m.Devices {
		m.Devices[i] = Device{ID: i, Speed: rng.Derive(uint64(i)+17).LogNormal(0, cfg.SpeedSigma)}
	}
	return m, nil
}

// phase returns cos distance from the availability peak in [−1, 1]: 1 at
// the peak hour, −1 twelve hours away. The fleet shares one time zone
// ("primarily comes from the same time zone", Appendix A).
func (m *Model) phase(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	return math.Cos(2 * math.Pi * (hour - m.cfg.PeakHour) / 24)
}

// Availability returns the probability that a device meets the eligibility
// criteria (idle + charging + unmetered network) at time t: the expected
// fraction of the fleet available.
func (m *Model) Availability(t time.Time) float64 {
	return m.MeanAvailability() * (1 + m.amplitude*m.phase(t))
}

// MeanAvailability is Availability averaged over the day.
func (m *Model) MeanAvailability() float64 { return m.cfg.PeakAvailability / (1 + m.amplitude) }

// DropoutProb returns the probability a participating device drops out of a
// round starting at t: computation errors, network failures, or eligibility
// changes. Daytime user interaction raises it (Fig. 7).
func (m *Model) DropoutProb(t time.Time) float64 {
	// daytimeness: 0 at the availability peak (night), 1 at the trough.
	daytimeness := (1 - m.phase(t)) / 2
	return m.cfg.NightDropout + (m.cfg.DayDropout-m.cfg.NightDropout)*daytimeness
}

// TrainDuration returns how long the device takes to run a training plan
// over n examples with the given per-example cost at median speed.
func (m *Model) TrainDuration(d *Device, n int, perExample time.Duration) time.Duration {
	if d.Speed <= 0 {
		return time.Duration(math.MaxInt64 / 2)
	}
	return time.Duration(float64(n) * float64(perExample) / d.Speed)
}
