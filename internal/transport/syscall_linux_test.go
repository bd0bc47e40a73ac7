package transport

import (
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/protocol"
)

// fionread is Linux's FIONREAD ioctl: the bytes queued on a socket. An
// ioctl is neither a read nor a write in /proc/self/io's census.
const fionread = 0x541B

// queued waits until c's socket holds at least n unread bytes.
func queued(t *testing.T, c *tcpConn, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		var have int32
		_ = control(c, func(fd uintptr) {
			_, _, _ = syscall.Syscall(syscall.SYS_IOCTL, fd, fionread, uintptr(unsafe.Pointer(&have)))
		})
		if int(have) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d bytes arrived", have, n)
		}
	}
}

// control runs fn on c's socket.
func control(c *tcpConn, fn func(fd uintptr)) error {
	raw, err := c.c.SyscallConn()
	if err != nil {
		return err
	}
	return raw.Control(fn)
}

// census is the process's read and write system calls so far.
func census(t *testing.T) (read, write int64) {
	t.Helper()
	read, write, ok := metrics.ProcSyscalls()
	if !ok {
		t.Skip("no /proc/self/io: the syscall census is not available")
	}
	return read, write
}

// TestOneReadPerSmallFrame is the exact count behind the census: over 1 000
// frames of at most 8 KiB — a control-sized leased report, a heartbeat and a
// frame that fills the read-ahead buffer — each already queued on the socket
// when Recv starts, Recv makes one read(2) per frame (two with a header read
// and a payload read), and the writer one write(2).
func TestOneReadPerSmallFrame(t *testing.T) {
	census(t)
	raw, server := rawPair(t)
	frames := [][]byte{reportFrame(2100).frame, goldenFramed(t, protocol.CodeHeartbeat).frame, envelopeFrame(maxWhole).frame}
	const n = 1000
	// Two census reads back to back measure the census's own reads (less a
	// poller wake-up's, below, should one fall between them).
	r0, w0 := census(t)
	r1, w1 := census(t)
	self := r1 - r0 - (w1 - w0)
	for i := 0; i < n; i++ {
		f := frames[i%len(frames)]
		if _, err := raw.Write(f); err != nil {
			t.Fatal(err)
		}
		queued(t, server, len(f))
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	r2, w2 := census(t)
	// The runtime wakes its poller with a write to an eventfd and reads it
	// back: each wake-up is one read and one write beyond the frames', so
	// the writes past n count them.
	reads, writes := r2-r1-self, w2-w1
	wakes := writes - n
	t.Logf("%d frames: %d reads, %d writes (%d poller wake-ups; a census costs %d reads)", n, reads, writes, wakes, self)
	if reads-wakes != n || wakes < 0 || wakes > n/100 {
		t.Fatalf("%d frames took %d reads and %d writes (%d wake-ups), want %d of each", n, reads, writes, wakes, n)
	}
	server.Release()
}

// sockopt reads an int socket option off c's socket.
func sockopt(t *testing.T, c Conn, level, opt int) int {
	t.Helper()
	v, err := -1, error(nil)
	if cerr := control(c.(*tcpConn), func(fd uintptr) {
		v, err = syscall.GetsockoptInt(int(fd), level, opt)
	}); cerr != nil || err != nil {
		t.Fatal(cerr, err)
	}
	return v
}

// TestKeepaliveOnlyWhereNothingElseBounds: accepted sockets run without
// kernel keepalive — every server-side phase has a protocol bound — and
// dialed ones, a device's, keep it, by IP literal and by host name. Both
// ends run without Nagle's delay: accepted sockets inherit TCP_NODELAY from
// the listening socket, so an accept sets no option.
func TestKeepaliveOnlyWhereNothingElseBounds(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, port, _ := strings.Cut(l.Addr(), ":")
	for _, addr := range []string{l.Addr(), "localhost:" + port} {
		client, err := DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			end       string
			conn      Conn
			keepalive int
		}{{"accepted", server, 0}, {"dialed at " + addr, client, 1}} {
			if got := sockopt(t, c.conn, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE); got != c.keepalive {
				t.Errorf("%s socket: SO_KEEPALIVE = %d, want %d", c.end, got, c.keepalive)
			}
			if got := sockopt(t, c.conn, syscall.IPPROTO_TCP, syscall.TCP_NODELAY); got != 1 {
				t.Errorf("%s socket: TCP_NODELAY = %d, want 1", c.end, got)
			}
		}
		if got := sockopt(t, client, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE); got != 15 {
			t.Errorf("socket dialed at %s: TCP_KEEPIDLE = %d s, want 15", addr, got)
		}
		client.Close()
		server.Close()
	}
}
