package plan

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

func TestRobustKindStrings(t *testing.T) {
	want := map[RobustKind]string{
		RobustNone:          "none",
		RobustNormBound:     "norm_bound",
		RobustTrimmedMean:   "trimmed_mean",
		RobustMedian:        "median",
		RobustCosineOutlier: "cosine_outlier",
		RobustKind(99):      "RobustKind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestRobustPerUpdate(t *testing.T) {
	per := map[RobustKind]bool{
		RobustNone:          false,
		RobustNormBound:     false,
		RobustTrimmedMean:   true,
		RobustMedian:        true,
		RobustCosineOutlier: true,
	}
	for k, want := range per {
		if got := (RobustPolicy{Kind: k}).PerUpdate(); got != want {
			t.Errorf("PerUpdate(%s) = %v, want %v", k, got, want)
		}
	}
}

func TestGenerateNormBoundMirrorsClipToDevice(t *testing.T) {
	cfg := testConfig()
	cfg.Robust = RobustPolicy{Kind: RobustNormBound, ClipNorm: 1.5}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Device.ClipNorm != 1.5 {
		t.Fatalf("Device.ClipNorm = %v, want 1.5 (mirrored from Robust.ClipNorm)", p.Device.ClipNorm)
	}
	if p.Server.Robust.Kind != RobustNormBound {
		t.Fatalf("Server.Robust.Kind = %v, want norm_bound", p.Server.Robust.Kind)
	}
}

func TestGeneratePerUpdatePolicyDefaultsToFloat64(t *testing.T) {
	cfg := testConfig()
	cfg.Robust = RobustPolicy{Kind: RobustTrimmedMean, TrimFraction: 0.25}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.UplinkEncoding(); got != checkpoint.EncodingFloat64 {
		t.Fatalf("UplinkEncoding = %v, want float64 (per-update policy must not default to quant8)", got)
	}

	// A QuantSafe policy keeps the bandwidth-saving quant8 default.
	cfg.Robust.QuantSafe = true
	p, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.UplinkEncoding(); got != checkpoint.EncodingQuant8 {
		t.Fatalf("UplinkEncoding = %v, want quant8 (QuantSafe keeps the default)", got)
	}
}

func TestValidateRobustComposition(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"norm_bound needs clip", func(c *Config) {
			c.Robust = RobustPolicy{Kind: RobustNormBound}
		}, "ClipNorm > 0"},
		{"trim fraction range low", func(c *Config) {
			c.Robust = RobustPolicy{Kind: RobustTrimmedMean}
		}, "TrimFraction in (0, 0.5)"},
		{"trim fraction range high", func(c *Config) {
			c.Robust = RobustPolicy{Kind: RobustTrimmedMean, TrimFraction: 0.5}
		}, "TrimFraction in (0, 0.5)"},
		{"cosine threshold range", func(c *Config) {
			c.Robust = RobustPolicy{Kind: RobustCosineOutlier, MaxCosineDistance: 3}
		}, "MaxCosineDistance in (0, 2]"},
		{"unknown kind", func(c *Config) {
			c.Robust = RobustPolicy{Kind: RobustKind(42)}
		}, "unknown robust policy kind"},
		{"trimmed mean under secagg", func(c *Config) {
			c.SecureAggregation = true
			c.Robust = RobustPolicy{Kind: RobustTrimmedMean, TrimFraction: 0.2}
		}, "secure aggregation hides individual updates"},
		{"median under secagg", func(c *Config) {
			c.SecureAggregation = true
			c.Robust = RobustPolicy{Kind: RobustMedian}
		}, "secure aggregation hides individual updates"},
		{"cosine under secagg", func(c *Config) {
			c.SecureAggregation = true
			c.Robust = RobustPolicy{Kind: RobustCosineOutlier, MaxCosineDistance: 0.5}
		}, "secure aggregation hides individual updates"},
		{"trimmed mean over explicit quant8", func(c *Config) {
			c.ReportEncoding = checkpoint.EncodingQuant8
			c.Robust = RobustPolicy{Kind: RobustTrimmedMean, TrimFraction: 0.2}
		}, "QuantSafe"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			_, err := Generate(cfg)
			if err == nil {
				t.Fatalf("Generate accepted invalid robust config")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateRobustAccepts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"norm_bound with secagg", func(c *Config) {
			c.SecureAggregation = true
			c.Robust = RobustPolicy{Kind: RobustNormBound, ClipNorm: 1}
		}},
		{"trimmed mean float64", func(c *Config) {
			c.ReportEncoding = checkpoint.EncodingFloat64
			c.Robust = RobustPolicy{Kind: RobustTrimmedMean, TrimFraction: 0.25}
		}},
		{"median quant8 quant-safe", func(c *Config) {
			c.ReportEncoding = checkpoint.EncodingQuant8
			c.Robust = RobustPolicy{Kind: RobustMedian, QuantSafe: true}
		}},
		{"cosine float64", func(c *Config) {
			c.ReportEncoding = checkpoint.EncodingFloat64
			c.Robust = RobustPolicy{Kind: RobustCosineOutlier, MaxCosineDistance: 0.8}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if _, err := Generate(cfg); err != nil {
				t.Fatalf("Generate rejected valid robust config: %v", err)
			}
		})
	}
}

func TestValidateRobustEvalTask(t *testing.T) {
	cfg := testConfig()
	cfg.Type = TaskEval
	cfg.BatchSize, cfg.Epochs, cfg.LearningRate = 0, 0, 0
	cfg.Robust = RobustPolicy{Kind: RobustMedian, QuantSafe: true}
	if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), "eval task") {
		t.Fatalf("Generate(eval + robust) error = %v, want eval-task rejection", err)
	}
}
