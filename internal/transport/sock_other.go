//go:build !linux || 386

package transport

import (
	"net"
	"net/netip"
	"slices"
	"sync"
)

// link is the portable path's socket, net's, on every system but linux (386
// aside). net's defaults are the raw path's options: TCP_NODELAY, keepalive
// on a dialed socket at go1.24's timing (idle 15 s, interval 15 s, 9 probes).
type link struct{ c *net.TCPConn }

func wrapTCP(c *net.TCPConn) *tcpConn { return &tcpConn{link: link{c}} }

// wrapNet wraps a socket net dialed or accepted.
func wrapNet(c net.Conn, err error) (Conn, error) {
	if err != nil {
		return nil, err
	}
	return wrapTCP(c.(*net.TCPConn)), nil
}

// dial dials an IP literal through net, as DialTCP does a host name.
func dial(ap netip.AddrPort) (Conn, error) {
	return wrapNet(new(net.Dialer).Dial("tcp", ap.String()))
}

// fillOnce is one Read onto the read-ahead buffer, which a parked conn holds.
func (t *tcpConn) fillOnce() error {
	if t.ahead == nil {
		t.ahead = NewLoan(0)
	}
	b := t.ahead.b
	n, err := t.c.Read(b[len(b):cap(b)])
	t.ahead.b = b[:len(b)+n]
	return err
}

// vecWrite is a frame's segments, pooled.
type vecWrite struct{ parts [][]byte }

var vecWrites = sync.Pool{New: func() any { return &vecWrite{} }}

// write writes parts in one call, which holds the socket's write lock, from a
// copy: WriteTo consumes its Buffers, and an Encoded's segments are shared.
func (w *vecWrite) write(t *tcpConn, parts [][]byte) (int, error) {
	bufs := net.Buffers(slices.Clone(parts))
	n, err := bufs.WriteTo(t.c)
	return int(n), err
}

type acceptor struct{ sock *net.TCPListener }

func (t *tcpListener) adopt(l *net.TCPListener) error {
	t.sock = l
	return nil
}

func (t *tcpListener) acceptOnce() (Conn, error) { return wrapNet(t.sock.Accept()) }
