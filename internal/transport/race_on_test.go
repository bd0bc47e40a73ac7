//go:build race

package transport

// raceEnabled: under the race detector sync.Pool drops a quarter of all Puts
// at random, so "the released buffer is the next one handed out" holds only
// most of the time, and allocation bounds on pooled paths do not hold at all.
const raceEnabled = true
