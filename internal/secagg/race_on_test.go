//go:build race

package secagg

// raceEnabled: under the race detector sync.Pool drops a quarter of all Puts
// at random, so allocation bounds on pooled paths do not hold.
const raceEnabled = true
