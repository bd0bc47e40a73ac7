package transport

import "syscall"

// dialOpts are sock_keepalive.go's in the thresholds every Solaris and
// illumos takes, in milliseconds: probes start after 15 s idle, and the
// connection drops 135 s (9 probes 15 s apart) later.
var dialOpts = [][3]int{
	{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPALIVE_THRESHOLD, 15000},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPALIVE_ABORT_THRESHOLD, 135000},
}
