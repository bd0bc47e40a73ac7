//go:build !race

package experiments

// testTarget is the test fleet's goal count.
const testTarget = 8
