//go:build !race

package flserver

const raceEnabled = false
