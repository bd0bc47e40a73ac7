package secagg

import (
	"maps"
	"strings"
	"testing"
)

// seqInputs builds inputs for devices 1..n with distinct per-device values
// so a wrong survivor set changes the sum.
func seqInputs(n, dim int) map[int][]float64 {
	inputs := make(map[int][]float64, n)
	for id := 1; id <= n; id++ {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(id) + float64(i)/8
		}
		inputs[id] = v
	}
	return inputs
}

func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		out = append(out, id)
	}
	return out
}

// TestAllPhaseChurnGroupCommits is the headline robustness acceptance: a
// group of n = 64 with t = 33 loses devices at every protocol phase
// boundary — n−t = 31 in total, the theoretical maximum — including one
// poisoned-share dealer, and still commits the correct sum over the
// devices whose masked inputs arrived.
func TestAllPhaseChurnGroupCommits(t *testing.T) {
	const n, tt = 64, 33
	cfg := Config{N: n, T: tt, VectorLen: 3}
	inputs := seqInputs(n, cfg.VectorLen)

	sched := Schedule{
		DropAdvertise:  span(1, 5),   // gone before Round 0
		DropShareKeys:  span(6, 10),  // advertised, never dealt shares
		PoisonShare:    []int{11},    // dealt corrupted shares
		DropAfterShare: span(12, 21), // dealt shares, never sent masked input
		DropAfterMask:  span(22, 31), // sent masked input, never unmasked
	}
	res, err := RunSchedule(cfg, inputs, sched)
	if err != nil {
		t.Fatalf("group must commit under maximal churn: %v", err)
	}

	// Survivors are exactly the devices that sent a masked input: the
	// poisoned dealer was excluded before masking, everything before it
	// never got that far.
	wantSurv := span(22, n)
	if len(res.Survivors) != len(wantSurv) {
		t.Fatalf("survivors = %v, want %v", res.Survivors, wantSurv)
	}
	for i, id := range wantSurv {
		if res.Survivors[i] != id {
			t.Fatalf("survivors = %v, want %v", res.Survivors, wantSurv)
		}
	}
	expectSum(t, inputs, wantSurv, res.Sum)

	// Exactly t responders remained (32..64 minus the 10 unmask drops):
	// the reconstruction ran at the threshold boundary.
	if res.Responded != tt {
		t.Fatalf("responded = %d, want exactly t = %d", res.Responded, tt)
	}
	why, blamed := res.Blamed[11]
	if !blamed {
		t.Fatalf("poisoned dealer must be blamed, got %v", res.Blamed)
	}
	if !strings.Contains(why, "complaint") {
		t.Fatalf("blame for poisoned dealer should cite a holder complaint: %q", why)
	}
}

// TestPoisonedDealerBlamedAndExcluded pins the complaint flow on its own:
// one device deals shares inconsistent with its broadcast commitments,
// every holder complains, the dealer is excluded from the mask set, and
// the group commits without its input.
func TestPoisonedDealerBlamedAndExcluded(t *testing.T) {
	cfg := Config{N: 8, T: 5, VectorLen: 2}
	inputs := seqInputs(8, cfg.VectorLen)
	res, err := RunSchedule(cfg, inputs, Schedule{PoisonShare: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Survivors {
		if id == 3 {
			t.Fatal("poisoned dealer must not survive into the sum")
		}
	}
	if len(res.Survivors) != 7 {
		t.Fatalf("survivors = %v, want the 7 honest devices", res.Survivors)
	}
	expectSum(t, inputs, res.Survivors, res.Sum)
	if _, ok := res.Blamed[3]; !ok {
		t.Fatalf("dealer 3 must be blamed, got %v", res.Blamed)
	}
}

// TestBlameIsDeterministic: the first complaint against a dealer sets the
// reason it is blamed with, so the share round must take the holders'
// complaints in one order — roster order — not a map's. Twenty runs of one
// poisoned dealer give one Blamed map: every holder complains, holder 1
// first. CI runs this under -race -count=10.
func TestBlameIsDeterministic(t *testing.T) {
	cfg := Config{N: 8, T: 5, VectorLen: 2}
	inputs := seqInputs(8, cfg.VectorLen)
	sum := make([]float64, cfg.VectorLen)
	want := map[int]string{3: "complaint from 1: share does not open broadcast commitment"}
	for run := range 20 {
		res, err := Run(cfg, inputs, Schedule{PoisonShare: []int{3}}, sum)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(res.Blamed, want) {
			t.Fatalf("run %d blamed %v, want %v", run, res.Blamed, want)
		}
	}
}

// TestForgedUnmaskBlamedSumStillCorrect: a responder forges its Round-3
// shares. The server's commitment check rejects the whole response,
// blames the responder, and the sum still reconstructs correctly from the
// remaining honest responders — a forger can never corrupt the sum.
func TestForgedUnmaskBlamedSumStillCorrect(t *testing.T) {
	cfg := Config{N: 8, T: 5, VectorLen: 2}
	inputs := seqInputs(8, cfg.VectorLen)
	// One real dropout forces the expensive recovery path (masking-key
	// reconstruction) to run on verified shares too.
	res, err := RunSchedule(cfg, inputs, Schedule{
		DropAfterShare: []int{2},
		ForgeUnmask:    []int{6},
	})
	if err != nil {
		t.Fatal(err)
	}
	expectSum(t, inputs, res.Survivors, res.Sum)
	why, ok := res.Blamed[6]
	if !ok {
		t.Fatalf("forging responder must be blamed, got %v", res.Blamed)
	}
	if !strings.Contains(why, "forged") {
		t.Fatalf("blame should name the forgery: %q", why)
	}
	if res.Responded != 6 {
		t.Fatalf("admitted responses = %d, want 6 (7 alive minus the forger)", res.Responded)
	}
}

// TestBelowThresholdChurnAbortsCleanly: when churn leaves fewer than T
// participants at any phase, the run degrades to an attributed abort —
// never a stall, never a wrong sum — and the Result still carries the
// blame map and response count for the caller's metrics.
func TestBelowThresholdChurnAbortsCleanly(t *testing.T) {
	cfg := Config{N: 8, T: 5, VectorLen: 2}
	inputs := seqInputs(8, cfg.VectorLen)
	cases := []struct {
		name  string
		sched Schedule
		phase string
	}{
		{"share round", Schedule{DropShareKeys: span(1, 4)}, "masked-input"},
		{"mask round", Schedule{DropAfterShare: span(1, 4)}, "unmask"},
		{"unmask round", Schedule{DropAfterMask: span(1, 4)}, "reconstruction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSchedule(cfg, inputs, tc.sched)
			if err == nil {
				t.Fatal("below-threshold churn must abort")
			}
			if !strings.Contains(err.Error(), "abort") || !strings.Contains(err.Error(), tc.phase) {
				t.Fatalf("abort must be attributed to the %s phase: %v", tc.phase, err)
			}
			if res == nil {
				t.Fatal("abort must still return the metric-carrying result")
			}
			if res.Sum != nil {
				t.Fatal("aborted run must not leak a sum")
			}
		})
	}
}

// TestMalformedInputTreatedAsDropout: a mask-set member whose update is
// missing or the wrong length degrades to a DropAfterShare dropout —
// the group commits without it instead of stalling or aborting.
func TestMalformedInputTreatedAsDropout(t *testing.T) {
	cfg := Config{N: 6, T: 4, VectorLen: 2}
	inputs := seqInputs(6, cfg.VectorLen)
	inputs[4] = nil                // lost before reporting
	inputs[5] = []float64{1, 2, 3} // wrong dimension
	res, err := RunSchedule(cfg, inputs, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 6}
	if len(res.Survivors) != len(want) {
		t.Fatalf("survivors = %v, want %v", res.Survivors, want)
	}
	for i, id := range want {
		if res.Survivors[i] != id {
			t.Fatalf("survivors = %v, want %v", res.Survivors, want)
		}
	}
	expectSum(t, inputs, want, res.Sum)
}
