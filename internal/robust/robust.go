// Package robust implements pluggable robust aggregation policies: the
// defenses against model poisoning that replace (or bound) the plain
// weighted mean of Sec. 2.2 when a task's plan asks for them
// (plan.RobustPolicy). The policy catalogue follows the robust-aggregation
// literature surveyed in "Advances and Open Problems in Federated
// Learning" (arXiv 1912.04977 §5) and the FL security survey
// (arXiv 2012.06810):
//
//   - norm bounding: clip each update's per-example-average L2 norm so no
//     single device can out-shout the cohort. Folds at the edge of the
//     striped accumulator path (checkpoint.Meta.ParamNorm +
//     AccumulateParamsScaled) and composes with secure aggregation via
//     client-side clipping — this package only supplies the arithmetic
//     (ClipScale).
//   - coordinate-wise trimmed mean / median: order statistics over the
//     per-example-average updates, immune to any minority of arbitrarily
//     scaled values per coordinate. Require per-update retention (Buffer).
//   - cosine outlier rejection: drop whole updates whose direction strays
//     too far from the cohort centroid, then average the survivors.
//
// The reduce is pure (Reduce); the concurrent retention buffer that the
// server's report hot loop fills lives in Buffer. All per-update policies
// operate on per-example-average updates u_i = Δ_i / n_i — the same
// normalized quantity fedavg.ClipUpdate bounds — so a device cannot evade
// an order statistic by inflating its example count.
package robust

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/plan"
	"repro/internal/tensor"
)

// Update is one device's buffered weighted update: Delta = n·(w − w_init)
// with Weight = n, exactly what rides in an update checkpoint.
type Update struct {
	Device string
	Weight float64
	Delta  tensor.Vector
}

// Rejection attributes one defensive exclusion to a device, so operators
// can distinguish defense hits from churn (msgRoundComplete threads these
// next to BlamedDevices).
type Rejection struct {
	Device string
	Reason string
}

// Result is the outcome of a robust reduce, shaped to drop into the
// fedavg pipeline: Sum/Weight/Count travel as a group's raw sums to the
// Coordinator's accumulator, whose step recovers the robust aggregate (Sum
// is pre-scaled so Sum/Weight IS the policy's mean). Result vectors never alias the input
// updates, so a Buffer can release them immediately after Reduce.
type Result struct {
	Sum    tensor.Vector
	Weight float64
	// Count is the number of updates that contributed to the aggregate.
	Count int
	// Rejected attributes defensive exclusions: whole-update rejections
	// for cosine_outlier and non-finite screening, dominant-tail
	// attribution for the order statistics (see Reduce).
	Rejected []Rejection
	// Clipped counts updates scaled down by norm bounding.
	Clipped int
	// Trimmed counts per-coordinate values excluded from the order
	// statistic's support (trimmed_mean and median).
	Trimmed int64
}

// ClipScale returns the factor that scales a weighted delta of L2 norm
// deltaNorm and weight n so its per-example average Δ/n has norm at most
// clip — fedavg.ClipUpdate's arithmetic, split out so the Reporting edge
// can clip from a streaming norm (checkpoint.Meta.ParamNorm) without
// materializing the update. Returns 1 when no clipping is needed.
func ClipScale(deltaNorm, weight, clip float64) float64 {
	if weight <= 0 || clip <= 0 || deltaNorm <= clip*weight {
		return 1
	}
	return clip * weight / deltaNorm
}

// Reduce applies the policy to a cohort of updates. Every kind is
// implemented — RobustNone and RobustNormBound reduce to the (clipped)
// weighted mean, so callers like the experiments grid can run any policy
// through one entry point — but the server only routes per-update
// policies here; norm bounding folds at the edge instead.
//
// Updates containing non-finite values are screened out (and attributed)
// before any policy runs: a single NaN would otherwise poison every sum
// and defeat the order statistics it sorts through.
func Reduce(policy plan.RobustPolicy, dim int, updates []Update) Result {
	res := Result{Sum: make(tensor.Vector, dim)}
	kept := updates[:0:0]
	for _, u := range updates {
		if u.Weight <= 0 || !finite(u.Delta) {
			res.Rejected = append(res.Rejected, Rejection{u.Device, "non-finite or non-positive-weight update"})
			continue
		}
		kept = append(kept, u)
	}
	if len(kept) == 0 {
		return res
	}
	switch policy.Kind {
	case plan.RobustTrimmedMean, plan.RobustMedian:
		reduceOrderStat(policy, dim, kept, &res)
	case plan.RobustCosineOutlier:
		reduceCosine(policy, kept, &res)
	default: // RobustNone, RobustNormBound: (clipped) weighted mean.
		for _, u := range kept {
			scale := 1.0
			if policy.Kind == plan.RobustNormBound {
				scale = ClipScale(u.Delta.Norm2(), u.Weight, policy.ClipNorm)
				if scale < 1 {
					res.Clipped++
				}
			}
			res.Sum.Axpy(scale, u.Delta)
			res.Weight += u.Weight
			res.Count++
		}
	}
	return res
}

// reduceOrderStat computes the coordinate-wise trimmed mean or median of
// the per-example-average updates, scaled back so Sum/Weight equals the
// robust mean. Attribution: a device that is the extreme (max or min)
// value in a majority of coordinates is dominating the trimmed tails and
// gets named in Rejected — its mass still contributes wherever it was not
// trimmed, so this is observability, not exclusion.
func reduceOrderStat(policy plan.RobustPolicy, dim int, kept []Update, res *Result) {
	k := len(kept)
	col := make([]float64, k)     // per-example-average values, device order
	scratch := make([]float64, k) // sorted copy
	extremal := make([]int, k)
	invW := make([]float64, k)
	var totalWeight float64
	for i, u := range kept {
		invW[i] = 1 / u.Weight
		totalWeight += u.Weight
	}
	trim := 0
	if policy.Kind == plan.RobustTrimmedMean {
		trim = int(policy.TrimFraction * float64(k))
	}
	for j := 0; j < dim; j++ {
		for i, u := range kept {
			col[i] = u.Delta[j] * invW[i]
		}
		copy(scratch, col)
		sort.Float64s(scratch)
		var center float64
		if policy.Kind == plan.RobustMedian {
			if k%2 == 1 {
				center = scratch[k/2]
			} else {
				center = (scratch[k/2-1] + scratch[k/2]) / 2
			}
			res.Trimmed += int64(k - 2 + k%2)
		} else {
			lo, hi := trim, k-trim
			var s float64
			for _, v := range scratch[lo:hi] {
				s += v
			}
			center = s / float64(hi-lo)
			res.Trimmed += int64(2 * trim)
		}
		res.Sum[j] = center * totalWeight
		if k > 1 {
			for i, v := range col {
				if v == scratch[0] || v == scratch[k-1] {
					extremal[i]++
				}
			}
		}
	}
	res.Weight = totalWeight
	res.Count = k
	for i, n := range extremal {
		if dim > 0 && n*2 > dim {
			res.Rejected = append(res.Rejected, Rejection{kept[i].Device,
				fmt.Sprintf("%s: extremal in %d%% of coordinates", policy.Kind, n*100/dim)})
		}
	}
}

// reduceCosine rejects updates whose cosine distance to the cohort
// centroid (the mean of the direction-normalized updates) exceeds the
// policy threshold, then weighted-averages the survivors. Zero updates
// carry no direction and are kept — they cannot steer the model.
func reduceCosine(policy plan.RobustPolicy, kept []Update, res *Result) {
	dim := len(res.Sum)
	centroid := make(tensor.Vector, dim)
	norms := make([]float64, len(kept))
	for i, u := range kept {
		norms[i] = u.Delta.Norm2()
		if norms[i] > 0 {
			centroid.Axpy(1/norms[i], u.Delta)
		}
	}
	cNorm := centroid.Norm2()
	for i, u := range kept {
		if norms[i] > 0 && cNorm > 0 {
			cos := u.Delta.Dot(centroid) / (norms[i] * cNorm)
			if d := 1 - cos; d > policy.MaxCosineDistance {
				res.Rejected = append(res.Rejected, Rejection{u.Device,
					fmt.Sprintf("cosine distance %.3f > %.3f", d, policy.MaxCosineDistance)})
				continue
			}
		}
		res.Sum.Axpy(1, u.Delta)
		res.Weight += u.Weight
		res.Count++
	}
}

func finite(v tensor.Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
