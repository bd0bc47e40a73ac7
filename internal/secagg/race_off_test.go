//go:build !race

package secagg

const raceEnabled = false
