package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/secagg"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// NextWordConfig sizes the Sec. 8 next-word-prediction reproduction. Zero
// fields take laptop-scale defaults (the paper's run: 1.4M-parameter RNN,
// 3000 rounds, 1.5e6 users — ours is a scaled-down shape reproduction).
type NextWordConfig struct {
	Users        int
	SentencesPer int
	SentenceLen  int
	Vocab        int
	Rounds       int
	DevicesPer   int // devices per round (paper: a few hundred)
	Seed         uint64
}

func (c *NextWordConfig) defaults() {
	if c.Users == 0 {
		c.Users = 120
	}
	if c.SentencesPer == 0 {
		c.SentencesPer = 30
	}
	if c.SentenceLen == 0 {
		c.SentenceLen = 8
	}
	if c.Vocab == 0 {
		c.Vocab = 24
	}
	if c.Rounds == 0 {
		c.Rounds = 60
	}
	if c.DevicesPer == 0 {
		c.DevicesPer = 20
	}
}

// NextWordResult reproduces the Sec. 8 comparison: federated RNN vs. the
// n-gram baseline vs. a centrally trained RNN of the same architecture.
type NextWordResult struct {
	Rounds             int
	FederatedRNN       float64 // top-1 recall, under a Float64 plan
	FederatedRNNQuant8 float64 // the same under the default plan: Quant8 both ways
	CentralizedRNN     float64
	Bigram             float64
	// RecallCurve is federated top-1 recall sampled every few rounds.
	RecallCurve []float64
}

// NextWord runs the next-word-prediction experiment.
func NextWord(cfg NextWordConfig) (*NextWordResult, error) {
	cfg.defaults()
	corpus, err := data.MarkovLM(data.LMConfig{
		Users: cfg.Users, SentencesPer: cfg.SentencesPer, SentenceLen: cfg.SentenceLen,
		Vocab: cfg.Vocab, TestSize: 300, Skew: 0.3, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	spec := nn.Spec{Kind: nn.KindRNNLM, Vocab: cfg.Vocab, Embed: 16, Hidden: 32, Seed: cfg.Seed + 1}

	// Baseline 1: bigram counts over the pooled corpus (what a server-side
	// count model could do with centrally collected data).
	bigram := nn.NewBigram(cfg.Vocab)
	var pooled []nn.Example
	for _, u := range corpus.Users {
		for _, ex := range u {
			bigram.Observe(ex.Seq)
		}
		pooled = append(pooled, u...)
	}

	// Baseline 2: the same RNN trained centrally on the pooled corpus.
	epochs := cfg.Rounds / 10
	if epochs < 3 {
		epochs = 3
	}
	central, err := fedavg.TrainCentralized(spec, pooled, epochs, 16, 0.5, cfg.Seed+2)
	if err != nil {
		return nil, err
	}

	// Federated training on the round engine, once under a Float64 plan and
	// once under the default plan, whose devices report and are served the
	// global model in Quant8 (Plan.DownlinkEncoding).
	var runs [2]*sim.EngineRun
	for i, enc := range []checkpoint.Encoding{checkpoint.EncodingFloat64, 0} {
		runs[i], err = sim.Train(sim.TrainConfig{Task: plan.Config{Model: spec, BatchSize: 8, Epochs: 1, LearningRate: 0.5,
			TargetDevices: cfg.DevicesPer, ReportEncoding: enc}, Users: corpus.Users, Rounds: cfg.Rounds, Seed: cfg.Seed + 3})
		if err != nil {
			return nil, err
		}
	}
	res := &NextWordResult{Rounds: cfg.Rounds}
	for i := range cfg.Rounds {
		if (i+1)%(cfg.Rounds/10+1) == 0 || i == cfg.Rounds-1 {
			res.RecallCurve = append(res.RecallCurve, runs[0].Evaluate(i, corpus.Test).Accuracy)
		}
	}
	res.FederatedRNN = runs[0].Evaluate(cfg.Rounds-1, corpus.Test).Accuracy
	res.FederatedRNNQuant8 = runs[1].Evaluate(cfg.Rounds-1, corpus.Test).Accuracy
	res.CentralizedRNN = central.Evaluate(corpus.Test).Accuracy
	res.Bigram = bigram.Evaluate(corpus.Test).Accuracy
	return res, nil
}

// Format renders the Sec. 8 comparison.
func (r *NextWordResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. 8 — Next-word prediction, top-1 recall after %d FL rounds\n", r.Rounds)
	fmt.Fprintf(&b, "%-24s %8.3f\n", "federated RNN", r.FederatedRNN)
	fmt.Fprintf(&b, "%-24s %8.3f   (the default plan: Quant8 up and down)\n", "federated RNN, quant8", r.FederatedRNNQuant8)
	fmt.Fprintf(&b, "%-24s %8.3f   (paper: FL matches server-trained RNN)\n", "centralized RNN", r.CentralizedRNN)
	fmt.Fprintf(&b, "%-24s %8.3f   (paper: FL beats the n-gram baseline)\n", "bigram baseline", r.Bigram)
	fmt.Fprintf(&b, "recall curve:")
	for _, v := range r.RecallCurve {
		fmt.Fprintf(&b, " %.3f", v)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// KSweepResult reproduces the Sec. 9 observation: diminishing convergence
// improvements beyond a few hundred devices per round.
type KSweepResult struct {
	Ks         []int
	Accuracies []float64
	Rounds     int
}

// KSweep trains the same task on the round engine with varying devices per
// round.
func KSweep(ks []int, rounds int, seed uint64) (*KSweepResult, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("experiments: empty K list")
	}
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	// Pathologically non-IID (each user holds a single class, as in McMahan
	// et al. 2017): with one device per round the average update seesaws
	// between classes; more devices per round smooth it, with diminishing
	// returns.
	fed, err := data.Blobs(data.BlobsConfig{
		Users: maxK * 2, ExamplesPer: 20, Features: 16, Classes: 8,
		TestSize: 800, Skew: 1.0, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	spec := nn.Spec{Kind: nn.KindLogistic, Features: 16, Classes: 8, Seed: seed + 1}
	out := &KSweepResult{Ks: ks, Rounds: rounds}
	for _, k := range ks {
		run, err := sim.Train(sim.TrainConfig{Task: plan.Config{Model: spec, BatchSize: 10, Epochs: 5, LearningRate: 0.2,
			TargetDevices: k}, Users: fed.Users, Rounds: rounds, Seed: seed + 2})
		if err != nil {
			return nil, err
		}
		out.Accuracies = append(out.Accuracies, run.Evaluate(rounds-1, fed.Test).Accuracy)
	}
	return out, nil
}

// Format renders the sweep with per-step gains.
func (r *KSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. 9 — Devices per round vs. accuracy after %d rounds\n", r.Rounds)
	fmt.Fprintf(&b, "%8s %10s %8s\n", "K", "accuracy", "gain")
	for i, k := range r.Ks {
		gain := 0.0
		if i > 0 {
			gain = r.Accuracies[i] - r.Accuracies[i-1]
		}
		fmt.Fprintf(&b, "%8d %10.3f %+8.3f\n", k, r.Accuracies[i], gain)
	}
	fmt.Fprintf(&b, "(paper: diminishing improvements beyond a few hundred devices)\n")
	return b.String()
}

// SecAggCostResult reproduces the Sec. 6 cost analysis: the server-side
// cost of Secure Aggregation grows quadratically with group size, which is
// why updates are aggregated in groups of size ≥ k per Aggregator — plus
// the robustness axis: what recovering from fleet churn costs, per dropout
// rate, as dropped devices force t-of-n reconstruction of their masking
// keys.
type SecAggCostResult struct {
	GroupSizes []int
	ServerTime []time.Duration // churn-free full-protocol time per group size
	// GroupedTime is the time to aggregate TotalDevices devices as
	// ceil(N/k) groups of size k — near-linear in N.
	TotalDevices int
	GroupedTime  []time.Duration
	// DropRates is the injected churn axis; RecoveryTime[si][ri] is the
	// full-protocol time for GroupSizes[si] under DropRates[ri], with
	// dropouts drawn across every phase boundary (sim.SecAggChurn). The
	// difference against ServerTime[si] is the recovery cost of that much
	// churn.
	DropRates    []float64
	RecoveryTime [][]time.Duration
}

// SecAggCost measures protocol cost vs. group size and dropout rate.
func SecAggCost(groupSizes []int, vectorLen, totalDevices int, dropRates []float64) (*SecAggCostResult, error) {
	out := &SecAggCostResult{GroupSizes: groupSizes, TotalDevices: totalDevices, DropRates: dropRates}
	for si, n := range groupSizes {
		cfg := secagg.Config{N: n, T: n/2 + 1, VectorLen: vectorLen}
		inputs := make(map[int][]float64, n)
		for id := 1; id <= n; id++ {
			v := make([]float64, vectorLen)
			for j := range v {
				v[j] = float64(id + j)
			}
			inputs[id] = v
		}
		sum := make([]float64, vectorLen)
		start := time.Now()
		if _, err := secagg.Run(cfg, inputs, nil, sum); err != nil {
			return nil, err
		}
		out.ServerTime = append(out.ServerTime, time.Since(start))

		// Aggregating totalDevices devices in groups of size n.
		groups := (totalDevices + n - 1) / n
		out.GroupedTime = append(out.GroupedTime, time.Duration(groups)*out.ServerTime[len(out.ServerTime)-1])

		// The churn axis: same group, dropouts injected at every phase
		// boundary at the given rate (deterministic draw per cell).
		out.RecoveryTime = append(out.RecoveryTime, make([]time.Duration, len(dropRates)))
		for ri, rate := range dropRates {
			rng := tensor.NewRNG(uint64(1000*si + ri + 1))
			churn := sim.SecAggChurn(n, cfg.T, sim.ChurnConfig{DropRate: rate}, rng)
			start := time.Now()
			if _, err := secagg.Run(cfg, inputs, churn.Link, sum); err != nil {
				return nil, err
			}
			out.RecoveryTime[si][ri] = time.Since(start)
		}
	}
	return out, nil
}

// Format renders the cost table.
func (r *SecAggCostResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. 6 — Secure Aggregation cost vs. group size and dropout rate\n")
	fmt.Fprintf(&b, "%8s %14s %12s %22s", "group n", "protocol time", "time/device", fmt.Sprintf("%d dev in n-groups", r.TotalDevices))
	for _, rate := range r.DropRates {
		fmt.Fprintf(&b, " %11s", fmt.Sprintf("drop %.0f%%", 100*rate))
	}
	fmt.Fprintf(&b, "\n")
	for i, n := range r.GroupSizes {
		per := time.Duration(int64(r.ServerTime[i]) / int64(n))
		fmt.Fprintf(&b, "%8d %14v %12v %22v", n, r.ServerTime[i].Round(time.Millisecond), per.Round(time.Microsecond), r.GroupedTime[i].Round(time.Millisecond))
		for ri := range r.DropRates {
			fmt.Fprintf(&b, " %11v", r.RecoveryTime[i][ri].Round(time.Millisecond))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "(paper: quadratic cost limits groups to hundreds of users; per-Aggregator groups bound it;\n")
	fmt.Fprintf(&b, " dropout columns show t-of-n recovery cost under churn at every phase boundary)\n")
	return b.String()
}
