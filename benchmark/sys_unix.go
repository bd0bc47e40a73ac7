//go:build unix

package main

import (
	"fmt"
	"syscall"
)

// cpuNanos is the process's user plus system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// raiseFDLimit lifts the soft RLIMIT_NOFILE toward the hard limit so the
// TCP workloads can hold both ends of every stub connection in one process.
func raiseFDLimit(need uint64) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return nil // cannot inspect; a dial will report exhaustion
	}
	if lim.Cur >= need {
		return nil
	}
	want := lim
	want.Cur = min(need, lim.Max)
	_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want)
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && lim.Cur < need {
		return fmt.Errorf("needs %d file descriptors but the limit is %d (ulimit -n)", need, lim.Cur)
	}
	return nil
}
