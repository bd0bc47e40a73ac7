//go:build !unix

package flserver

// ensureFDLimit is a no-op where RLIMIT_NOFILE does not exist; descriptor
// exhaustion surfaces as a dial/accept error instead.
func ensureFDLimit(n uint64) error { return nil }
