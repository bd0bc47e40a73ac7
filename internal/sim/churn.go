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
// (ids 1..n) with Shamir threshold t, as faults on their links in
// secagg.Run: a drop is a reset as the device sends its advert, its shares
// or its unmask response, or as it is told the mask set; a poisoned deal or
// a forged unmask is a corruption of its shares or its unmask response.
// Every fault removes at most one contribution from the final unmask
// round, so the draw caps their total at n − t: the schedule is always
// survivable and the group commits. Rates high enough to exceed the cap
// are truncated, device order randomized by the draw itself (earlier ids
// are not favoured: each device rolls independently until the budget is
// spent).
func SecAggChurn(n, t int, cfg ChurnConfig, rng *tensor.RNG) secagg.Faults {
	faults := secagg.Faults{}
	drops := []secagg.Fault{secagg.DropAdvertise, secagg.DropShares, secagg.DropMasked, secagg.DropUnmask}
	for id := 1; id <= n && len(faults) < n-t; id++ {
		switch r := rng.Float64(); {
		case r < cfg.DropRate:
			faults[id] = drops[rng.Intn(len(drops))]
		case r < cfg.DropRate+cfg.PoisonRate:
			faults[id] = secagg.Poison
		case r < cfg.DropRate+cfg.PoisonRate+cfg.ForgeRate:
			faults[id] = secagg.Forge
		}
	}
	return faults
}
