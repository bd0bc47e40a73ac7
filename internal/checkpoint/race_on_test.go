//go:build race

package checkpoint

// marshalAllocs is what one Marshal allocates in an instrumented build,
// which does not fuse append(s, make([]T, n)...) into one growth: the
// codec's slices.Grow allocates twice.
const marshalAllocs = 2
