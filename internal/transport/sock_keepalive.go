//go:build aix || dragonfly || freebsd || linux || netbsd

package transport

import "syscall"

// dialOpts are a dialed socket's options: TCP_NODELAY, and keepalive with
// go1.24's timing (idle 15 s, interval 15 s, 9 probes).
var dialOpts = [][3]int{
	{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
}
