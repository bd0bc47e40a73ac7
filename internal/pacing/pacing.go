// Package pacing implements pace steering (Sec. 2.3): the flow-control
// mechanism by which the server suggests to each device the optimum time
// window to reconnect. It is stateless and probabilistic — the server keeps
// no per-device state and needs no extra communication.
//
// Two regimes:
//
//   - Small FL populations: reconnect suggestions are aligned to a shared
//     round cadence so that "subsequent checkins are likely to arrive
//     contemporaneously" — otherwise a population of 50 devices trickling
//     in at random times would never assemble a round (and Secure
//     Aggregation would never reach its threshold).
//
//   - Large FL populations: suggestions are spread uniformly over a window
//     sized so the expected check-in rate just covers task demand, avoiding
//     the thundering herd and telling devices to connect "as frequently as
//     needed to run all scheduled FL tasks, but not more".
//
// A diurnal load factor adjusts window lengths through the day (Sec. 2.3,
// last paragraph).
package pacing

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// obsSuggestions counts pace-steering reconnect hints handed to devices —
// one per rejected or steered check-in across the whole process.
var obsSuggestions = metrics.Default.Counter("fl_pace_suggestions_total")

// Steering computes reconnect windows. The zero value is not usable; use
// New for defaults.
type Steering struct {
	// RoundPeriod is the target cadence of rounds for this population.
	RoundPeriod time.Duration
	// SmallThreshold is the population size below which the synchronizing
	// regime is used.
	SmallThreshold int
	// MinWait and MaxWait clamp every suggestion.
	MinWait, MaxWait time.Duration
	// Overprovision is the factor by which expected check-ins exceed
	// demand, to cover dropout and rejection (≥ 1).
	Overprovision float64
	// LoadFactor, if non-nil, returns the relative desirability of load at
	// a given time in (0, ∞): > 1 lengthens windows (push work away from
	// this time), < 1 shortens them. Used for diurnal shaping.
	LoadFactor func(time.Time) float64
	// Epoch anchors the shared round grid for the synchronizing regime.
	Epoch time.Time
}

// New returns a Steering with the defaults used throughout the experiments.
func New(roundPeriod time.Duration) *Steering {
	return &Steering{
		RoundPeriod:    roundPeriod,
		SmallThreshold: 1000,
		MinWait:        roundPeriod / 4,
		MaxWait:        6 * time.Hour,
		Overprovision:  2,
		Epoch:          time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Suggest returns the delay after which a device should reconnect.
// population is the estimated number of active devices; demand is the
// number of participants needed per round.
func (s *Steering) Suggest(population, demand int, now time.Time, rng *tensor.RNG) time.Duration {
	if population < 1 {
		population = 1
	}
	if demand < 1 {
		demand = 1
	}
	obsSuggestions.Inc()
	var d time.Duration
	if population <= s.SmallThreshold {
		d = s.suggestSync(now, rng)
	} else {
		d = s.suggestSpread(population, demand, now, rng)
	}
	return s.clamp(d, now)
}

// MeanWait returns the expected value of the delay Suggest would draw for
// the given population estimate and demand, after the same clamping (the
// diurnal LoadFactor applies too, since devices were steered under it).
// The live population estimator inverts it: devices reconnect about once
// per MeanWait, so an observed check-in rate λ implies a population of
// roughly λ × MeanWait.
func (s *Steering) MeanWait(population, demand int, now time.Time) time.Duration {
	if population < 1 {
		population = 1
	}
	if demand < 1 {
		demand = 1
	}
	var d time.Duration
	if population <= s.SmallThreshold {
		// untilNext is uniform over (0, period] (mean period/2) and the
		// jitter uniform over the first 10% of the round (mean 5%).
		d = time.Duration(0.55 * float64(s.RoundPeriod))
	} else {
		// suggestSpread draws uniformly from [0.5·W, 1.5·W]: mean W.
		d = time.Duration(float64(population) * float64(s.RoundPeriod) / (s.Overprovision * float64(demand)))
	}
	return s.clamp(d, now)
}

// suggestSync aligns reconnects to the next shared round boundary plus a
// small jitter, so rejected devices come back together.
func (s *Steering) suggestSync(now time.Time, rng *tensor.RNG) time.Duration {
	period := s.RoundPeriod
	elapsed := now.Sub(s.Epoch) % period
	if elapsed < 0 {
		elapsed += period
	}
	untilNext := period - elapsed
	// Jitter within the first 10% of the round keeps check-ins
	// contemporaneous without being simultaneous.
	jitter := time.Duration(rng.Float64() * 0.1 * float64(period))
	return untilNext + jitter
}

// suggestSpread draws uniformly from a window sized so that expected
// arrivals per round period ≈ Overprovision × demand.
func (s *Steering) suggestSpread(population, demand int, _ time.Time, rng *tensor.RNG) time.Duration {
	// Devices reconnecting once per window W give an arrival rate of
	// population/W; solve population/W = Overprovision·demand/RoundPeriod.
	w := float64(population) * float64(s.RoundPeriod) / (s.Overprovision * float64(demand))
	window := time.Duration(w)
	// Uniform over [0.5·W, 1.5·W]: mean W, fully spread.
	return time.Duration((0.5 + rng.Float64()) * float64(window))
}

func (s *Steering) clamp(d time.Duration, now time.Time) time.Duration {
	if s.LoadFactor != nil {
		// Applied before clamping so MaxWait still bounds the result.
		if f := s.LoadFactor(now); f > 0 {
			d = time.Duration(float64(d) * f)
		}
	}
	if d < s.MinWait {
		d = s.MinWait
	}
	if s.MaxWait > 0 && d > s.MaxWait {
		d = s.MaxWait
	}
	return d
}
