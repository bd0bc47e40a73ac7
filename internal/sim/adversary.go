// Package sim is the fleet the experiments run: a population of phones
// checking in to the round engine itself on a virtual clock (fleet.go, the
// run behind the operational figures), and the adversaries the experiments
// inject into a fleet — poisoning attackers for the robust-aggregation grid
// (adversary.go) and per-group device churn for Secure Aggregation
// (churn.go).
package sim

import (
	"fmt"

	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// AttackKind enumerates the adversary models the robust-aggregation
// experiments inject, following the poisoning taxonomy of the FL security
// literature (arXiv 1912.04977 §5, arXiv 2012.06810):
//
//   - label flipping: data poisoning — the compromised device trains
//     honestly but on examples whose labels were rewritten, so its update
//     is plausible in scale yet steers the model toward misclassification.
//   - scaled update: model poisoning — the device trains honestly and then
//     multiplies its update, out-shouting the cohort in the weighted mean
//     (the attack norm bounding neutralizes).
//   - byzantine collusion: every compromised device abandons its data and
//     submits the SAME seeded malicious direction, so the colluders form a
//     coherent bloc per coordinate (the attack order statistics resist
//     only while the colluding fraction stays below the trim).
type AttackKind int

const (
	AttackNone AttackKind = iota
	AttackLabelFlip
	AttackScaledUpdate
	AttackByzantine
)

// String names the attack for experiment tables.
func (k AttackKind) String() string {
	switch k {
	case AttackNone:
		return "none"
	case AttackLabelFlip:
		return "label_flip"
	case AttackScaledUpdate:
		return "scaled_update"
	case AttackByzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("attack(%d)", int(k))
	}
}

// AdversaryConfig sizes an attack on a device population.
type AdversaryConfig struct {
	Kind AttackKind
	// Fraction of the population that is compromised, in [0, 1). Which
	// devices are compromised is a stable seeded draw: the same devices
	// attack every round, as a real compromise would.
	Fraction float64
	// Scale multiplies the scaled-update attack's delta, and sets the
	// per-example-average norm of the byzantine direction. Defaults to -10
	// (a sign-flipped, amplified push away from the honest gradient).
	Scale float64
	Seed  uint64
}

// Adversary is a stable assignment of compromised devices plus the
// corruption each applies. The zero Adversary (or Kind AttackNone)
// compromises nobody, so honest baselines run through the same code path.
type Adversary struct {
	cfg         AdversaryConfig
	compromised map[int]bool
	rng         *tensor.RNG
	// direction is the colluders' shared unit vector, built lazily at the
	// first byzantine corruption (the model dimension is not known sooner).
	direction tensor.Vector
}

// NewAdversary draws the compromised set: a seeded permutation of the
// population with the first ⌊Fraction·population⌋ indices compromised.
func NewAdversary(cfg AdversaryConfig, population int) *Adversary {
	if cfg.Scale == 0 {
		cfg.Scale = -10
	}
	a := &Adversary{cfg: cfg, compromised: make(map[int]bool), rng: tensor.NewRNG(cfg.Seed ^ 0xADBE)}
	if cfg.Kind == AttackNone || cfg.Fraction <= 0 || population <= 0 {
		return a
	}
	k := int(cfg.Fraction * float64(population))
	for _, i := range a.rng.Perm(population)[:k] {
		a.compromised[i] = true
	}
	return a
}

// Count is the number of compromised devices in the population.
func (a *Adversary) Count() int { return len(a.compromised) }

// CorruptExamples applies the data-poisoning half of the attack: for a
// compromised device under label flipping it returns a copy of the
// examples with every class label rotated to the next class (mod classes);
// otherwise it returns the input untouched. The rotation (rather than a
// random flip) makes the poison coherent across colluding devices.
func (a *Adversary) CorruptExamples(device int, examples []nn.Example, classes int) []nn.Example {
	if a.cfg.Kind != AttackLabelFlip || !a.compromised[device] || classes < 2 {
		return examples
	}
	out := make([]nn.Example, len(examples))
	for i, ex := range examples {
		ex.Y = (ex.Y + 1) % classes
		out[i] = ex
	}
	return out
}

// CorruptUpdate applies the model-poisoning half of the attack in place,
// after local training and before the update is reported:
//
//   - scaled update: Delta ← Scale·Delta.
//   - byzantine: Delta ← |Scale|·Weight·d for the shared unit direction d,
//     so every colluder reports a per-example average of norm |Scale|
//     pointing the same way.
//
// Returns true when the update was corrupted.
func (a *Adversary) CorruptUpdate(device int, u *fedavg.Update) bool {
	if !a.compromised[device] {
		return false
	}
	switch a.cfg.Kind {
	case AttackScaledUpdate:
		u.Delta.Scale(a.cfg.Scale)
		return true
	case AttackByzantine:
		dir := a.sharedDirection(len(u.Delta))
		scale := a.cfg.Scale
		if scale < 0 {
			scale = -scale
		}
		for j := range u.Delta {
			u.Delta[j] = scale * u.Weight * dir[j]
		}
		return true
	default:
		return false
	}
}

func (a *Adversary) sharedDirection(dim int) tensor.Vector {
	if len(a.direction) == dim {
		return a.direction
	}
	d := make(tensor.Vector, dim)
	rng := tensor.NewRNG(a.cfg.Seed ^ 0xB12A)
	rng.FillNormal(d, 1)
	if n := d.Norm2(); n > 0 {
		d.Scale(1 / n)
	}
	a.direction = d
	return a.direction
}
