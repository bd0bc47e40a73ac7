//go:build race

package shard_test

// raceEnabled: the race detector dies past 8128 live goroutines, which a
// K=4096 round's devices alone exceed.
const raceEnabled = true
