package sim

import (
	"repro/internal/secagg"
	"repro/internal/tensor"
)

// ChurnConfig parameterizes fleet churn and adversarial behaviour for one
// Secure Aggregation group. Rates are per-device probabilities.
type ChurnConfig struct {
	// DropRate is the probability a device vanishes mid-protocol; the
	// phase boundary at which it drops is drawn uniformly over the four
	// protocol boundaries (before advertising, during share keys, before
	// its masked input, before its unmask response).
	DropRate float64
	// PoisonRate is the probability a device deals share bundles
	// inconsistent with its broadcast commitments (a poisoned-share
	// cohort): holders complain and the device is excluded before masking.
	PoisonRate float64
	// ForgeRate is the probability a surviving device answers the unmask
	// round with forged shares: the server rejects and blames it.
	ForgeRate float64
}

// SecAggChurn draws a dropout/adversary schedule for a group of n devices
// (ids 1..n) with Shamir threshold t. Every drop, poisoned dealer, and
// forged responder removes at most one contribution from the final unmask
// round, so the draw caps their total at n − t: the schedule is always
// survivable and the group commits. Rates high enough to exceed the cap
// are truncated, device order randomized by the draw itself (earlier ids
// are not favoured: each device rolls independently until the budget is
// spent).
func SecAggChurn(n, t int, cfg ChurnConfig, rng *tensor.RNG) secagg.Schedule {
	var sched secagg.Schedule
	budget := n - t
	phases := []*[]int{
		&sched.DropAdvertise,
		&sched.DropShareKeys,
		&sched.DropAfterShare,
		&sched.DropAfterMask,
	}
	for id := 1; id <= n && budget > 0; id++ {
		switch r := rng.Float64(); {
		case r < cfg.DropRate:
			p := phases[rng.Intn(len(phases))]
			*p = append(*p, id)
			budget--
		case r < cfg.DropRate+cfg.PoisonRate:
			sched.PoisonShare = append(sched.PoisonShare, id)
			budget--
		case r < cfg.DropRate+cfg.PoisonRate+cfg.ForgeRate:
			sched.ForgeUnmask = append(sched.ForgeUnmask, id)
			budget--
		}
	}
	return sched
}
