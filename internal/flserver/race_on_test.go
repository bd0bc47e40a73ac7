//go:build race

package flserver

// raceEnabled: under the race detector sync.Pool drops a quarter of all Puts
// at random, so a returned buffer is not always the next one handed out.
const raceEnabled = true
