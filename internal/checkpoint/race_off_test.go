//go:build !race

package checkpoint

// marshalAllocs is what one Marshal allocates: its buffer.
const marshalAllocs = 1
