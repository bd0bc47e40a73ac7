//go:build race

package sim

// testTarget is the test fleet's goal count: under the race detector, whose
// bookkeeping grows with every goroutine a round starts, half the rounds'
// devices.
const testTarget = 4
