package sim

import (
	"math"
	"testing"

	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestAdversaryStableAssignment(t *testing.T) {
	cfg := AdversaryConfig{Kind: AttackScaledUpdate, Fraction: 0.25, Seed: 7}
	a := NewAdversary(cfg, 40)
	b := NewAdversary(cfg, 40)
	if a.Count() != 10 {
		t.Fatalf("Count = %d, want 10 (25%% of 40)", a.Count())
	}
	for i := 0; i < 40; i++ {
		if a.compromised[i] != b.compromised[i] {
			t.Fatalf("assignment not stable at device %d", i)
		}
	}
	honest := NewAdversary(AdversaryConfig{Kind: AttackNone, Fraction: 0.5, Seed: 7}, 40)
	if honest.Count() != 0 {
		t.Fatalf("AttackNone compromised %d devices", honest.Count())
	}
}

func TestCorruptExamplesLabelFlip(t *testing.T) {
	a := NewAdversary(AdversaryConfig{Kind: AttackLabelFlip, Fraction: 1, Seed: 3}, 4)
	in := []nn.Example{{X: []float64{1}, Y: 0}, {X: []float64{2}, Y: 2}}
	out := a.CorruptExamples(1, in, 3)
	if in[0].Y != 0 || in[1].Y != 2 {
		t.Fatal("CorruptExamples mutated its input")
	}
	if out[0].Y != 1 || out[1].Y != 0 {
		t.Fatalf("labels not rotated mod classes: got %d, %d", out[0].Y, out[1].Y)
	}
	// A scaled-update adversary leaves data alone.
	s := NewAdversary(AdversaryConfig{Kind: AttackScaledUpdate, Fraction: 1, Seed: 3}, 4)
	if got := s.CorruptExamples(1, in, 3); &got[0] != &in[0] {
		t.Fatal("non-label-flip attack should pass examples through")
	}
}

func TestCorruptUpdateScaled(t *testing.T) {
	a := NewAdversary(AdversaryConfig{Kind: AttackScaledUpdate, Fraction: 1, Scale: -5, Seed: 1}, 2)
	u := &fedavg.Update{Delta: tensor.Vector{1, -2, 3}, Weight: 4}
	if !a.CorruptUpdate(0, u) {
		t.Fatal("compromised device not corrupted")
	}
	want := tensor.Vector{-5, 10, -15}
	for j := range want {
		if u.Delta[j] != want[j] {
			t.Fatalf("Delta[%d] = %v, want %v", j, u.Delta[j], want[j])
		}
	}
	if u.Weight != 4 {
		t.Fatalf("Weight changed to %v", u.Weight)
	}
	none := NewAdversary(AdversaryConfig{Kind: AttackScaledUpdate, Fraction: 0, Scale: -5, Seed: 1}, 2)
	v := &fedavg.Update{Delta: tensor.Vector{1, 1}, Weight: 1}
	if none.CorruptUpdate(0, v) || v.Delta[0] != 1 {
		t.Fatal("honest device corrupted")
	}
}

func TestCorruptUpdateByzantineColludes(t *testing.T) {
	a := NewAdversary(AdversaryConfig{Kind: AttackByzantine, Fraction: 1, Scale: -3, Seed: 9}, 2)
	u0 := &fedavg.Update{Delta: tensor.Vector{1, 2, 3, 4}, Weight: 2}
	u1 := &fedavg.Update{Delta: tensor.Vector{-9, 0, 1, 7}, Weight: 5}
	if !a.CorruptUpdate(0, u0) || !a.CorruptUpdate(1, u1) {
		t.Fatal("colluders not corrupted")
	}
	// Both colluders report the same per-example-average direction with
	// norm |Scale|, regardless of weight or honest training outcome.
	for j := range u0.Delta {
		avg0 := u0.Delta[j] / u0.Weight
		avg1 := u1.Delta[j] / u1.Weight
		if math.Abs(avg0-avg1) > 1e-12 {
			t.Fatalf("colluders disagree at coordinate %d: %v vs %v", j, avg0, avg1)
		}
	}
	norm := 0.0
	for j := range u0.Delta {
		v := u0.Delta[j] / u0.Weight
		norm += v * v
	}
	if norm = math.Sqrt(norm); math.Abs(norm-3) > 1e-9 {
		t.Fatalf("byzantine per-example-average norm = %v, want 3", norm)
	}
}
