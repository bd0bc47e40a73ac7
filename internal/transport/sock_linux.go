//go:build linux && !386

package transport

import (
	"cmp"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// link is the raw path's socket, the transport's own descriptor: accept4(2),
// connect(2), read(2) and writev(2) run in its os.File's RawConn callbacks,
// so the poller waits (linux/386, with accept4 only through socketcall, takes
// sock_other.go).
type link struct {
	c   *os.File
	raw syscall.RawConn
}

func wrapTCP(c *os.File) *tcpConn {
	t := &tcpConn{link: link{c: c}}
	t.raw, _ = c.SyscallConn()
	return t
}

// wrapNet takes a descriptor of a socket net dialed (one dup), as adopt does.
func wrapNet(c net.Conn, err error) (Conn, error) {
	if err != nil {
		return nil, err
	}
	defer c.Close()
	f, err := c.(interface{ File() (*os.File, error) }).File()
	if err != nil {
		return nil, err
	}
	return wrapTCP(f), nil
}

// reading is one Recv's wait for its socket, pooled with fill bound once so
// no socket keeps a closure.
type reading struct {
	t    *tcpConn
	fill func(fd uintptr) bool
}

var readings = sync.Pool{New: func() any { r := &reading{}; r.fill = r.readAhead; return r }}

// fillOnce is one read(2) onto the read-ahead buffer, which readAhead takes
// only once the socket may be readable: a parked conn holds no buffer.
func (t *tcpConn) fillOnce() error {
	r := readings.Get().(*reading)
	r.t = t
	err := t.raw.Read(r.fill)
	r.t = nil
	readings.Put(r)
	if err != nil || t.ahead.rn > 0 {
		return err
	} else if t.ahead.rn == 0 {
		return io.EOF
	}
	return fmt.Errorf("transport: read: %w", syscall.Errno(-t.ahead.rn))
}

// readAhead is fill: one read(2) onto the read-ahead buffer, taken once the
// socket may be readable and put back empty when the read would block.
func (r *reading) readAhead(fd uintptr) bool {
	t := r.t
	if t.ahead == nil {
		t.ahead = NewLoan(0)
	}
	b := t.ahead.b
	n, err := syscall.Read(int(fd), b[len(b):cap(b)])
	switch e, _ := err.(syscall.Errno); {
	case e == syscall.EAGAIN:
		if len(b) == 0 {
			t.ahead.Release()
			t.ahead = nil
		}
		return false
	case e != 0:
		n = -int(e)
	}
	t.ahead.rn, t.ahead.b = int32(n), b[:len(b)+max(n, 0)]
	return true
}

// vecWrite is one vectored write, pooled with writev bound once so no socket
// keeps iovecs: a frame's segments, their iovecs and the ones left to write.
type vecWrite struct {
	parts     [][]byte
	iov, left []iovec
	n         int
	err       error
	writev    func(fd uintptr) bool
}

// iovec is C's struct iovec.
type iovec struct {
	base *byte
	n    uint
}

var vecWrites = sync.Pool{New: func() any { w := &vecWrite{}; w.writev = w.more; return w }}

// write writes parts, in one writev(2) when the socket takes them all.
func (w *vecWrite) write(t *tcpConn, parts [][]byte) (int, error) {
	w.iov = w.iov[:0]
	for _, p := range parts {
		if len(p) > 0 {
			w.iov = append(w.iov, iovec{unsafe.SliceData(p), uint(len(p))})
		}
	}
	w.left, w.n, w.err = w.iov, 0, nil
	err := t.raw.Write(w.writev)
	clear(w.iov) // iovecs kept in the pool would pin their buffers
	return w.n, cmp.Or(err, w.err)
}

// more is writev: writev(2)s of at most IOV_MAX (1 024) iovecs until none
// is left, or false while the socket is full.
func (w *vecWrite) more(fd uintptr) bool {
	for len(w.left) > 0 {
		iov := w.left[:min(len(w.left), 1024)]
		n, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case 0:
		default:
			w.err = os.NewSyscallError("writev", e)
			return true
		}
		for w.n += int(n); n >= uintptr(w.left[0].n); w.left = w.left[1:] {
			if n -= uintptr(w.left[0].n); len(w.left) == 1 {
				return true
			}
		}
		w.left[0].base, w.left[0].n = (*byte)(unsafe.Add(unsafe.Pointer(w.left[0].base), n)), w.left[0].n-uint(n)
	}
	return true
}

// acceptor accepts on its own descriptor of the listening socket (net's has
// a RawConn whose Read fails EINVAL). mu keeps nfd and err to one Accept.
type acceptor struct {
	sock *os.File
	raw  syscall.RawConn
	take func(fd uintptr) bool
	mu   sync.Mutex
	nfd  int
	err  syscall.Errno
}

// adopt keeps a descriptor of l's socket (one dup) with TCP_NODELAY, which
// accepted sockets inherit with the lack of keepalive: an accept sets none.
func (t *tcpListener) adopt(l *net.TCPListener) (err error) {
	defer l.Close()
	if t.sock, err = l.File(); err != nil {
		return err
	}
	t.raw, _ = t.sock.SyscallConn()
	t.take = t.acceptOne
	if cerr := t.raw.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) }); cerr != nil || err != nil {
		t.sock.Close()
		return cmp.Or(cerr, os.NewSyscallError("setsockopt", err))
	}
	return nil
}

// acceptOnce is one accept4(2) once the socket is readable.
func (t *tcpListener) acceptOnce() (Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.raw.Read(t.take); err != nil || t.err != 0 {
		return nil, cmp.Or(err, os.NewSyscallError("accept", t.err))
	}
	return wrapTCP(os.NewFile(uintptr(t.nfd), "tcp")), nil
}

// acceptOne is take: accept4(2), non-blocking, close-on-exec and without the
// peer's address. It retries what net retries and waits on EAGAIN.
func (t *tcpListener) acceptOne(fd uintptr) bool {
	for {
		nfd, _, e := syscall.Syscall6(syscall.SYS_ACCEPT4, fd, 0, 0, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
		if t.nfd, t.err = int(nfd), e; e != syscall.EINTR && e != syscall.ECONNABORTED {
			return e != syscall.EAGAIN
		}
	}
}

// dialOpts are a dialed socket's options: TCP_NODELAY, and keepalive with
// go1.24's timing (idle 15 s, interval 15 s, 9 probes), as net.Dialer sets.
var dialOpts = [][3]int{
	{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
}

// dialing is one connect, pooled with its wait (connected, bound once).
type dialing struct {
	sa4  syscall.SockaddrInet4
	sa6  syscall.SockaddrInet6
	sa   syscall.Sockaddr
	err  error
	wait func(fd uintptr) bool
}

var dials = sync.Pool{New: func() any { d := &dialing{}; d.wait = d.connected; return d }}

// dial connects a socket of its own, with dialOpts set, to a zoneless ap.
func dial(ap netip.AddrPort) (Conn, error) {
	d := dials.Get().(*dialing)
	defer dials.Put(d)
	ip, family := ap.Addr().Unmap(), syscall.AF_INET6
	d.sa4.Port, d.sa6.Port, d.sa6.Addr, d.sa = int(ap.Port()), int(ap.Port()), ip.As16(), &d.sa6
	if ip.Is4() {
		family, d.sa4.Addr, d.sa = syscall.AF_INET, ip.As4(), &d.sa4
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	t := wrapTCP(os.NewFile(uintptr(fd), "tcp"))
	for _, o := range dialOpts {
		if err == nil {
			err = os.NewSyscallError("setsockopt", syscall.SetsockoptInt(fd, o[0], o[1], o[2]))
		}
	}
	if err == nil {
		if err = syscall.Connect(fd, d.sa); err == syscall.EINPROGRESS || err == syscall.EINTR {
			if err = t.raw.Write(d.wait); err == nil {
				err = d.err
			}
		}
	}
	if err != nil {
		t.Close()
		return nil, fmt.Errorf("transport: dial %s: %w", ap, err)
	}
	return t, nil
}

// connected is wait: a second connect(2) finds the first done (0 or
// EISCONN), failed (its error) or in progress, once the socket is writable.
func (d *dialing) connected(fd uintptr) bool {
	switch d.err = syscall.Connect(int(fd), d.sa); d.err {
	case syscall.EALREADY, syscall.EINTR:
		return false
	case nil, syscall.EISCONN:
		d.err = nil
	default: // where a failed attempt may restart, SO_ERROR keeps its error
		if n, _ := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR); n != 0 {
			d.err = syscall.Errno(n)
		}
	}
	return true
}
