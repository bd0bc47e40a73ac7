package transport

import "syscall"

// dialOpts are sock_keepalive.go's under darwin's names: TCP_KEEPALIVE is
// the idle time, and the syscall package lacks TCP_KEEPINTVL (0x101) and
// TCP_KEEPCNT (0x102) on amd64.
var dialOpts = [][3]int{
	{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPALIVE, 15},
	{syscall.IPPROTO_TCP, 0x101, 15},
	{syscall.IPPROTO_TCP, 0x102, 9},
}
