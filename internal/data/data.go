// Package data generates the synthetic federated datasets the experiments
// train on. The paper's workloads (Gboard next-word prediction, on-device
// item ranking) use private on-device data we cannot access; these
// generators produce data with the property that actually matters for the
// system evaluation: it is partitioned per-user and non-IID, so federated
// optimization behaves like it does in the field (client drift, diminishing
// returns from more clients per round, etc.).
package data

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Federated is a dataset partitioned across users, plus a held-out test set
// drawn from the global distribution (the "proxy data" a model engineer
// evaluates against, Sec. 7.1).
type Federated struct {
	Users [][]nn.Example // Users[i] is user i's local example store content
	Test  []nn.Example
}

// LMConfig configures the synthetic next-word-prediction corpus.
type LMConfig struct {
	Users        int
	SentencesPer int // sentences per user
	SentenceLen  int // tokens per sentence
	Vocab        int
	TestSize     int // held-out sentences
	// Skew in [0,1]: 0 = every user samples from the global chain (IID);
	// 1 = each user's transition distribution is heavily personalised.
	Skew float64
	Seed uint64
}

// MarkovLM builds a non-IID language-modelling corpus. A global first-order
// Markov chain over the vocabulary defines the shared language; each user
// mixes it with a personal chain, controlled by Skew. This mirrors mobile
// keyboard data: mostly a common language, partly personal vocabulary habits.
func MarkovLM(cfg LMConfig) (*Federated, error) {
	if cfg.Users <= 0 || cfg.Vocab <= 1 || cfg.SentenceLen < 2 || cfg.SentencesPer <= 0 {
		return nil, fmt.Errorf("data: invalid LMConfig %+v", cfg)
	}
	if cfg.Skew < 0 || cfg.Skew > 1 {
		return nil, fmt.Errorf("data: Skew must be in [0,1], got %v", cfg.Skew)
	}
	rng := tensor.NewRNG(cfg.Seed)
	global := randomChain(cfg.Vocab, rng.Derive(1))

	f := &Federated{Users: make([][]nn.Example, cfg.Users)}
	for u := 0; u < cfg.Users; u++ {
		urng := rng.Derive(uint64(u) + 1000)
		chain := global
		if cfg.Skew > 0 {
			personal := randomChain(cfg.Vocab, urng.Derive(7))
			chain = mixChains(global, personal, cfg.Skew)
		}
		exs := make([]nn.Example, cfg.SentencesPer)
		for s := range exs {
			exs[s] = nn.Example{Seq: sampleSentence(chain, cfg.Vocab, cfg.SentenceLen, urng)}
		}
		f.Users[u] = exs
	}

	trng := rng.Derive(2)
	f.Test = make([]nn.Example, cfg.TestSize)
	for i := range f.Test {
		f.Test[i] = nn.Example{Seq: sampleSentence(global, cfg.Vocab, cfg.SentenceLen, trng)}
	}
	return f, nil
}

// randomChain builds a row-stochastic transition matrix with a strongly
// peaked structure (each token has a few likely successors), so next-word
// prediction is learnable well above chance.
func randomChain(vocab int, rng *tensor.RNG) []float64 {
	chain := make([]float64, vocab*vocab)
	for i := 0; i < vocab; i++ {
		row := chain[i*vocab : (i+1)*vocab]
		// A small number of preferred successors with geometric-ish mass.
		var sum float64
		for j := range row {
			row[j] = 0.02 * rng.ExpFloat64()
			sum += row[j]
		}
		for k := 0; k < 3; k++ {
			j := rng.Intn(vocab)
			boost := rng.ExpFloat64() * float64(3-k)
			row[j] += boost
			sum += boost
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return chain
}

// mixChains returns (1-skew)·a + skew·b row-wise.
func mixChains(a, b []float64, skew float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = (1-skew)*a[i] + skew*b[i]
	}
	return out
}

// sampleSentence draws a token sequence from the chain.
func sampleSentence(chain []float64, vocab, length int, rng *tensor.RNG) []int {
	seq := make([]int, length)
	seq[0] = rng.Intn(vocab)
	for i := 1; i < length; i++ {
		seq[i] = sampleRow(chain[seq[i-1]*vocab:(seq[i-1]+1)*vocab], rng)
	}
	return seq
}

func sampleRow(row []float64, rng *tensor.RNG) int {
	u := rng.Float64()
	var cum float64
	for j, p := range row {
		cum += p
		if u < cum {
			return j
		}
	}
	return len(row) - 1
}
