package data

import (
	"testing"

	"repro/internal/nn"
)

// totalExamples counts the training examples across all users.
func totalExamples(f *Federated) int {
	n := 0
	for _, u := range f.Users {
		n += len(u)
	}
	return n
}

func TestMarkovLMShape(t *testing.T) {
	f, err := MarkovLM(LMConfig{Users: 5, SentencesPer: 3, SentenceLen: 6, Vocab: 10, TestSize: 4, Skew: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Users) != 5 {
		t.Fatalf("users = %d", len(f.Users))
	}
	if totalExamples(f) != 15 {
		t.Fatalf("total examples = %d, want 15", totalExamples(f))
	}
	if len(f.Test) != 4 {
		t.Fatalf("Test size = %d", len(f.Test))
	}
	for _, u := range f.Users {
		for _, ex := range u {
			if len(ex.Seq) != 6 {
				t.Fatalf("sentence length = %d", len(ex.Seq))
			}
			for _, tok := range ex.Seq {
				if tok < 0 || tok >= 10 {
					t.Fatalf("token %d out of vocab", tok)
				}
			}
		}
	}
}

func TestMarkovLMInvalidConfig(t *testing.T) {
	for _, cfg := range []LMConfig{
		{Users: 0, SentencesPer: 1, SentenceLen: 3, Vocab: 5},
		{Users: 1, SentencesPer: 1, SentenceLen: 1, Vocab: 5},
		{Users: 1, SentencesPer: 1, SentenceLen: 3, Vocab: 1},
		{Users: 1, SentencesPer: 1, SentenceLen: 3, Vocab: 5, Skew: 2},
	} {
		if _, err := MarkovLM(cfg); err == nil {
			t.Errorf("MarkovLM(%+v) should fail", cfg)
		}
	}
}

func TestMarkovLMDeterministic(t *testing.T) {
	cfg := LMConfig{Users: 3, SentencesPer: 2, SentenceLen: 5, Vocab: 8, TestSize: 2, Seed: 42}
	a, _ := MarkovLM(cfg)
	b, _ := MarkovLM(cfg)
	for u := range a.Users {
		for s := range a.Users[u] {
			for i := range a.Users[u][s].Seq {
				if a.Users[u][s].Seq[i] != b.Users[u][s].Seq[i] {
					t.Fatal("same seed must produce identical corpus")
				}
			}
		}
	}
}

func TestMarkovLMIsLearnable(t *testing.T) {
	// A bigram model trained on the corpus must beat chance by a wide
	// margin, i.e. the chain is genuinely structured.
	f, err := MarkovLM(LMConfig{Users: 20, SentencesPer: 20, SentenceLen: 8, Vocab: 16, TestSize: 50, Skew: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bg := nn.NewBigram(16)
	for _, u := range f.Users {
		for _, ex := range u {
			bg.Observe(ex.Seq)
		}
	}
	met := bg.Evaluate(f.Test)
	chance := 1.0 / 16
	if met.Accuracy < 3*chance {
		t.Fatalf("bigram top-1 = %v, want well above chance %v", met.Accuracy, chance)
	}
}

func TestMarkovLMSkewIncreasesHeterogeneity(t *testing.T) {
	// With high skew, a bigram trained on one user's data transfers worse to
	// the global test set than a bigram trained on the same amount of IID
	// data. This verifies Skew actually produces non-IID partitions.
	base := LMConfig{Users: 10, SentencesPer: 40, SentenceLen: 8, Vocab: 12, TestSize: 200, Seed: 7}
	iidCfg, skewCfg := base, base
	iidCfg.Skew, skewCfg.Skew = 0, 0.9
	iid, _ := MarkovLM(iidCfg)
	skew, _ := MarkovLM(skewCfg)

	evalUser0 := func(f *Federated) float64 {
		bg := nn.NewBigram(12)
		for _, ex := range f.Users[0] {
			bg.Observe(ex.Seq)
		}
		return bg.Evaluate(f.Test).Accuracy
	}
	accIID, accSkew := evalUser0(iid), evalUser0(skew)
	if accSkew >= accIID {
		t.Fatalf("skewed single-user transfer (%v) should be worse than IID (%v)", accSkew, accIID)
	}
}

func TestBlobsShapeAndLabels(t *testing.T) {
	f, err := Blobs(BlobsConfig{Users: 4, ExamplesPer: 10, Features: 3, Classes: 5, TestSize: 20, Skew: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Users) != 4 || totalExamples(f) != 40 || len(f.Test) != 20 {
		t.Fatalf("shape: users=%d total=%d test=%d", len(f.Users), totalExamples(f), len(f.Test))
	}
	for _, ex := range f.Test {
		if len(ex.X) != 3 {
			t.Fatalf("feature dim = %d", len(ex.X))
		}
		if ex.Y < 0 || ex.Y >= 5 {
			t.Fatalf("label %d out of range", ex.Y)
		}
	}
}

func TestBlobsSkewConcentratesLabels(t *testing.T) {
	f, _ := Blobs(BlobsConfig{Users: 10, ExamplesPer: 100, Features: 2, Classes: 10, TestSize: 1, Skew: 1, Seed: 2})
	for u, exs := range f.Users {
		first := exs[0].Y
		for _, ex := range exs {
			if ex.Y != first {
				t.Fatalf("user %d: skew=1 should give single-class users", u)
			}
		}
	}
}

func TestBlobsLearnable(t *testing.T) {
	f, _ := Blobs(BlobsConfig{Users: 10, ExamplesPer: 50, Features: 4, Classes: 3, TestSize: 100, Skew: 0, Seed: 5})
	m := nn.NewLogistic(4, 3, 1)
	var all []nn.Example
	for _, u := range f.Users {
		all = append(all, u...)
	}
	for epoch := 0; epoch < 15; epoch++ {
		for i := 0; i < len(all); i += 20 {
			end := i + 20
			if end > len(all) {
				end = len(all)
			}
			m.TrainBatch(all[i:end], 0.1)
		}
	}
	if acc := m.Evaluate(f.Test).Accuracy; acc < 0.9 {
		t.Fatalf("blobs should be easily learnable, got accuracy %v", acc)
	}
}

func TestBlobsInvalidConfig(t *testing.T) {
	if _, err := Blobs(BlobsConfig{Users: 0}); err == nil {
		t.Fatal("want error for zero users")
	}
	if _, err := Blobs(BlobsConfig{Users: 1, ExamplesPer: 1, Features: 1, Classes: 2, Skew: -0.1}); err == nil {
		t.Fatal("want error for negative skew")
	}
}

func TestRankingShape(t *testing.T) {
	f, err := Ranking(RankingConfig{Users: 6, ExamplesPer: 8, Features: 5, Items: 7, TestSize: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Users) != 6 || totalExamples(f) != 48 || len(f.Test) != 10 {
		t.Fatal("ranking shape mismatch")
	}
	for _, ex := range f.Test {
		if ex.Y < 0 || ex.Y >= 7 {
			t.Fatalf("clicked item %d out of range", ex.Y)
		}
	}
}

func TestRankingLearnable(t *testing.T) {
	f, _ := Ranking(RankingConfig{Users: 20, ExamplesPer: 50, Features: 6, Items: 5, TestSize: 200, Seed: 3})
	m := nn.NewLogistic(6, 5, 2)
	var all []nn.Example
	for _, u := range f.Users {
		all = append(all, u...)
	}
	for epoch := 0; epoch < 20; epoch++ {
		for i := 0; i < len(all); i += 25 {
			end := i + 25
			if end > len(all) {
				end = len(all)
			}
			m.TrainBatch(all[i:end], 0.1)
		}
	}
	acc := m.Evaluate(f.Test).Accuracy
	if acc < 0.5 { // chance is 0.2
		t.Fatalf("ranking should be learnable above chance, got %v", acc)
	}
}

func TestRankingInvalidConfig(t *testing.T) {
	if _, err := Ranking(RankingConfig{Users: 1, ExamplesPer: 1, Features: 1, Items: 1}); err == nil {
		t.Fatal("want error for Items=1")
	}
}
