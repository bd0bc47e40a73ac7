//go:build unix && !(dragonfly || freebsd || (linux && !386))

package transport

import (
	"syscall"
	"unsafe"
)

// accept takes a connection off the listening socket fd where accept4(2) is
// missing (on linux/386 it is reached only through socketcall).
func accept(fd int) (int, error) {
	syscall.ForkLock.RLock()
	defer syscall.ForkLock.RUnlock()
	nfd, _, err := syscall.Accept(fd)
	return flagged(nfd, err)
}

// socket opens a non-blocking, close-on-exec TCP socket.
func socket(family int) (int, error) {
	syscall.ForkLock.RLock()
	defer syscall.ForkLock.RUnlock()
	return flagged(syscall.Socket(family, syscall.SOCK_STREAM, 0))
}

// flagged makes a new descriptor close-on-exec and non-blocking with fcntl.
func flagged(fd int, err error) (int, error) {
	if err == nil {
		syscall.CloseOnExec(fd)
		if err = syscall.SetNonblock(fd, true); err != nil {
			syscall.Close(fd)
		}
	}
	return fd, err
}

// writev writes iov's first segment in one write(2): the syscall package
// reaches writev(2) on few of these systems.
func writev(fd uintptr, iov []iovec) (uintptr, syscall.Errno) {
	n, err := syscall.Write(int(fd), unsafe.Slice(iov[0].base, iov[0].n))
	e, _ := err.(syscall.Errno)
	return uintptr(max(n, 0)), e
}
