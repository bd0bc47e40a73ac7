package secagg

// This file is kept for benchmark/ until ROADMAP 14: benchmark/replay.go
// times a group through RunSchedule. No product file calls it
// (TestBenchmarkSurface checks it): the Aggregator and the experiments call
// Run with a vector of their own.

// RunSchedule is Run into a fresh vector.
func RunSchedule(cfg Config, inputs map[int][]float64, sched Schedule) (*Result, error) {
	return Run(cfg, inputs, sched, make([]float64, max(cfg.VectorLen, 0)))
}
