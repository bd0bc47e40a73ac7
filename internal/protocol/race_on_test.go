//go:build race

package protocol

// raceEnabled: an instrumented build does not fuse append(s, make([]T,
// n)...) into one growth, so slices.Grow allocates twice and an encode's
// count doubles; the codec allocates no more.
const raceEnabled = true
