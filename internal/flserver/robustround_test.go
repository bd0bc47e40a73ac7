package flserver

import (
	"math"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// clippedSerialReference recomputes a norm-bounded bench round the slow
// way: decode every device update through the wire encoding, clip it with
// fedavg.ClipUpdate (the materialize-then-scale arithmetic the streaming
// edge path must reproduce), and fold serially.
func clippedSerialReference(t *testing.T, devices, dim, attackers int, scale, clip float64, enc checkpoint.Encoding) (*fedavg.Accumulator, int) {
	t.Helper()
	acc := fedavg.NewAccumulator(dim)
	clipped := 0
	for i := 0; i < devices; i++ {
		u := &checkpoint.Checkpoint{TaskName: "bench/roundtput", Weight: float64(1 + i%3),
			Params: make(tensor.Vector, dim)}
		for j := range u.Params {
			u.Params[j] = float64(i+1) * (float64(j%7)*0.25 - 0.5)
		}
		if i < attackers {
			u.Params.Scale(scale)
		}
		b, err := u.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := checkpoint.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		upd := &fedavg.Update{Delta: decoded.Params, Weight: decoded.Weight}
		if fedavg.ClipUpdate(upd, clip) {
			clipped++
		}
		if err := acc.Add(upd); err != nil {
			t.Fatal(err)
		}
	}
	return acc, clipped
}

// TestEdgeClippingMatchesSerial: the streaming norm-bound path (one
// ParamNorm pass + one scaled accumulate pass per report, folded
// concurrently into stripes) must commit the same checkpoint as clipping
// each materialized update serially, over TCP and over the quant8 uplink.
// (The float64-over-mem case is the norm_bound row of
// shard.TestEngineEquivalenceMatrix, which runs it in process, 1+1 and
// 1+3.) CI runs this under -race, so the concurrent clipped folds are also
// checked for unsynchronized access.
func TestEdgeClippingMatchesSerial(t *testing.T) {
	const devices, dim, attackers = 48, 256, 9
	const attackScale, clip = -40.0, 1.5
	for _, tc := range []struct {
		name string
		tcp  bool
		enc  checkpoint.Encoding
	}{
		{"mem/quant8", false, checkpoint.EncodingQuant8},
		{"tcp/float64", true, checkpoint.EncodingFloat64},
		{"tcp/quant8", true, checkpoint.EncodingQuant8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := runBenchRound(benchRoundConfig{
				Devices: devices, Dim: dim, TCP: tc.tcp, Encoding: tc.enc,
				Robust:    plan.RobustPolicy{Kind: plan.RobustNormBound, ClipNorm: clip, QuantSafe: true},
				Attackers: attackers, AttackScale: attackScale,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Completed != devices || st.Committed == nil {
				t.Fatalf("completed %d/%d, committed %v", st.Completed, devices, st.Committed)
			}
			ref, refClipped := clippedSerialReference(t, devices, dim, attackers, attackScale, clip, tc.enc)
			if refClipped < attackers {
				t.Fatalf("test setup: only %d/%d attackers exceed the clip bound", refClipped, attackers)
			}
			if st.Clipped != refClipped {
				t.Fatalf("Clipped = %d, serial reference clipped %d", st.Clipped, refClipped)
			}
			if math.Abs(st.Committed.Weight-ref.Weight()) > 1e-9 {
				t.Fatalf("committed weight %v, want %v", st.Committed.Weight, ref.Weight())
			}
			avg, err := ref.Average()
			if err != nil {
				t.Fatal(err)
			}
			for i := range avg {
				if math.Abs(st.Committed.Params[i]-avg[i]) > 1e-9*(1+math.Abs(avg[i])) {
					t.Fatalf("param %d: committed %v, serial %v", i, st.Committed.Params[i], avg[i])
				}
			}
		})
	}
}

// TestNormBoundLeavesHonestRoundUntouched: with every update inside the
// clip bound, the norm-bounded round must commit exactly what the
// undefended round commits, with zero clips.
func TestNormBoundLeavesHonestRoundUntouched(t *testing.T) {
	const devices, dim = 16, 64
	base, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim, DistinctUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Honest per-example-average norms peak well below this bound.
	bounded, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim, DistinctUpdates: true,
		Robust: plan.RobustPolicy{Kind: plan.RobustNormBound, ClipNorm: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Clipped != 0 {
		t.Fatalf("Clipped = %d, want 0", bounded.Clipped)
	}
	for i := range base.Committed.Params {
		if base.Committed.Params[i] != bounded.Committed.Params[i] {
			t.Fatalf("param %d diverged: %v vs %v", i, base.Committed.Params[i], bounded.Committed.Params[i])
		}
	}
}

// retentionReference folds the bench round's per-device payloads through
// the sorted-sample order statistic (per coordinate, on per-example
// averages) — the reference a retention-policy round must commit.
func retentionReference(t *testing.T, devices, dim, attackers int, scale float64, kind plan.RobustKind, trim float64) tensor.Vector {
	t.Helper()
	vals := make([]float64, devices)
	out := make(tensor.Vector, dim)
	for j := 0; j < dim; j++ {
		for i := 0; i < devices; i++ {
			v := float64(i+1) * (float64(j%7)*0.25 - 0.5)
			if i < attackers {
				v *= scale
			}
			vals[i] = v / float64(1+i%3) // per-example average Delta[j]/Weight
		}
		ref := make([]float64, devices)
		copy(ref, vals)
		insertionSort(ref)
		if kind == plan.RobustMedian {
			if devices%2 == 1 {
				out[j] = ref[devices/2]
			} else {
				out[j] = (ref[devices/2-1] + ref[devices/2]) / 2
			}
			continue
		}
		cut := int(trim * float64(devices))
		var s float64
		for _, v := range ref[cut : devices-cut] {
			s += v
		}
		out[j] = s / float64(devices-2*cut)
	}
	return out
}

func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		for k := i; k > 0 && v[k] < v[k-1]; k-- {
			v[k], v[k-1] = v[k-1], v[k]
		}
	}
}

// TestRetentionRoundCommitsRobustMeanAndAttributes: an end-to-end
// trimmed-mean round over mem and tcp with 2/12 devices reporting updates
// scaled by 1e6. The committed checkpoint must equal the sorted-sample
// reference (immune to the attackers), and the round record must attribute
// the attackers by name in RobustRejected. (The same reference across
// topologies — and the refusal on more than one edge — is the trimmed_mean
// row of shard.TestEngineEquivalenceMatrix.)
func TestRetentionRoundCommitsRobustMeanAndAttributes(t *testing.T) {
	const devices, dim, attackers = 12, 32, 2
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			st, err := runBenchRound(benchRoundConfig{
				Devices: devices, Dim: dim, TCP: tcp,
				Robust:    plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: 0.25},
				Attackers: attackers, AttackScale: 1e6,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Completed != devices || st.Committed == nil {
				t.Fatalf("completed %d/%d, committed %v", st.Completed, devices, st.Committed)
			}
			want := retentionReference(t, devices, dim, attackers, 1e6, plan.RobustTrimmedMean, 0.25)
			for j := range want {
				if math.Abs(st.Committed.Params[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
					t.Fatalf("param %d: committed %v, reference %v", j, st.Committed.Params[j], want[j])
				}
			}
			// bench-0 and bench-1 dominate the trimmed tails in every
			// coordinate and must be named in the round's attribution.
			attributed := map[string]bool{}
			for _, r := range st.RobustRejected {
				dev, _, ok := strings.Cut(r, ":")
				if !ok {
					t.Fatalf("attribution %q not in deviceID: reason form", r)
				}
				attributed[dev] = true
			}
			if !attributed["bench-0"] || !attributed["bench-1"] {
				t.Fatalf("attackers not attributed: %v", st.RobustRejected)
			}
		})
	}
}

// TestMedianRoundCommitsCoordinateMedian: the median retention policy
// end-to-end — committed params equal the per-coordinate median of the
// per-example-average updates.
func TestMedianRoundCommitsCoordinateMedian(t *testing.T) {
	const devices, dim = 9, 16
	st, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim,
		Robust:    plan.RobustPolicy{Kind: plan.RobustMedian},
		Attackers: 1, AttackScale: -1e8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != devices || st.Committed == nil {
		t.Fatalf("completed %d/%d", st.Completed, devices)
	}
	want := retentionReference(t, devices, dim, 1, -1e8, plan.RobustMedian, 0)
	for j := range want {
		if math.Abs(st.Committed.Params[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
			t.Fatalf("param %d: committed %v, median reference %v", j, st.Committed.Params[j], want[j])
		}
	}
}

// TestCosineRoundRejectsAndCommitsHonestMean: the cosine-outlier policy
// drops the inverted attackers entirely — the committed checkpoint equals
// the plain weighted mean of the honest cohort, and the attackers are
// attributed with their cosine distance.
func TestCosineRoundRejectsAndCommitsHonestMean(t *testing.T) {
	const devices, dim, attackers = 10, 24, 2
	st, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim,
		Robust:    plan.RobustPolicy{Kind: plan.RobustCosineOutlier, MaxCosineDistance: 0.5},
		Attackers: attackers, AttackScale: -3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rejected updates do not count toward the aggregate (mirroring how
	// secagg-blamed devices are excluded), so Completed is the honest count.
	if st.Completed != devices-attackers || st.Committed == nil {
		t.Fatalf("completed %d, want %d honest", st.Completed, devices-attackers)
	}
	// Honest-cohort weighted mean: Sum Δ_i / Sum w_i over devices ≥ attackers.
	acc := fedavg.NewAccumulator(dim)
	for i := attackers; i < devices; i++ {
		u := make(tensor.Vector, dim)
		w := float64(1 + i%3)
		for j := range u {
			u[j] = float64(i+1) * (float64(j%7)*0.25 - 0.5)
		}
		if err := acc.Add(&fedavg.Update{Delta: u, Weight: w}); err != nil {
			t.Fatal(err)
		}
	}
	avg, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	for j := range avg {
		if math.Abs(st.Committed.Params[j]-avg[j]) > 1e-9*(1+math.Abs(avg[j])) {
			t.Fatalf("param %d: committed %v, honest mean %v", j, st.Committed.Params[j], avg[j])
		}
	}
	attributed := map[string]bool{}
	for _, r := range st.RobustRejected {
		dev, reason, _ := strings.Cut(r, ": ")
		attributed[dev] = true
		if !strings.Contains(reason, "cosine distance") {
			t.Fatalf("unexpected rejection reason %q", r)
		}
	}
	if !attributed["bench-0"] || !attributed["bench-1"] || len(attributed) != attackers {
		t.Fatalf("cosine attribution wrong: %v", st.RobustRejected)
	}
}
