//go:build unix

package flserver

import (
	"fmt"
	"syscall"
)

// ensureFDLimit makes sure the process may hold at least n file
// descriptors, raising the soft RLIMIT_NOFILE toward the hard limit if
// needed (unprivileged on every Unix). The TCP round benchmark holds both
// ends of K connections in one process, which overruns common default soft
// limits (256 on macOS, 1024 in many Linux shells); failing here with a
// clear message beats an EMFILE mid-round.
func ensureFDLimit(n uint64) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return nil // can't inspect; let the dial report any exhaustion
	}
	if lim.Cur >= n {
		return nil
	}
	raised := lim
	raised.Cur = n
	if raised.Cur > lim.Max {
		raised.Cur = lim.Max
	}
	_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised)
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && lim.Cur < n {
		return fmt.Errorf("needs %d file descriptors but the limit is %d; raise it (ulimit -n) or use the in-memory transport", n, lim.Cur)
	}
	return nil
}
