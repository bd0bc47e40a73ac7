//go:build !unix

package main

// cpuNanos is unavailable off Unix; CPU metrics read as zero there.
func cpuNanos() int64 { return 0 }

func raiseFDLimit(uint64) error { return nil }
