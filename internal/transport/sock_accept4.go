//go:build dragonfly || freebsd || (linux && !386)

package transport

import (
	"syscall"
	"unsafe"
)

// accept takes a connection off the listening socket fd in one accept4(2):
// non-blocking, close-on-exec, and without the peer's address.
func accept(fd int) (int, error) {
	nfd, _, e := syscall.Syscall6(syscall.SYS_ACCEPT4, uintptr(fd), 0, 0, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
	if e != 0 {
		return -1, e
	}
	return int(nfd), nil
}

// socket opens a non-blocking, close-on-exec TCP socket.
func socket(family int) (int, error) {
	return syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
}

// writev is one writev(2).
func writev(fd uintptr, iov []iovec) (uintptr, syscall.Errno) {
	n, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	return n, e
}
