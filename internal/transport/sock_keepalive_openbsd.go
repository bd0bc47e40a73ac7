package transport

import "syscall"

// dialOpts are sock_keepalive.go's without the timing: OpenBSD has no
// per-socket keepalive knobs, so probes follow the system's sysctls.
var dialOpts = [][3]int{
	{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
}
