//go:build !race

package sim

// testTarget is the test fleet's goal count.
const testTarget = 8
