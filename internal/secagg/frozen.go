package secagg

// This file is kept for benchmark/ until ROADMAP 14: benchmark/replay.go
// times a group through RunSchedule. No product file calls it
// (TestBenchmarkSurface checks it): the Aggregator and the experiments call
// Run with a vector of their own.

// Schedule is what RunSchedule once took to inject churn; it is empty, and
// drop-outs are faults on a Run's links.
type Schedule struct{}

// RunSchedule is Run into a fresh vector, over plain links.
func RunSchedule(cfg Config, inputs map[int][]float64, _ Schedule) (*Result, error) {
	return Run(cfg, inputs, nil, make([]float64, max(cfg.VectorLen, 0)))
}
