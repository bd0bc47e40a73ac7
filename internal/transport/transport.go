// Package transport provides the bidirectional message streams devices use
// to talk to the FL server (Sec. 2.2: devices "check in to the server by
// opening a bidirectional stream... used to track liveness and orchestrate
// multi-step communication").
//
// Two implementations: an in-memory transport for simulation and tests, and
// a TCP transport for the standalone server binaries. TCP frames carry the
// binary codec of internal/protocol (length-prefixed, no reflection) and
// nothing else: a message without a codec there is a Send error.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/simclock"
)

// Process-wide TCP frame byte counters (headers included). Plain atomic
// adds on the send/recv paths — the accounting must not add allocations to
// the report hot loop. The in-memory transport never frames, so it counts
// nothing; /dashboard traffic totals reflect real wire bytes only.
var (
	obsTxBytes = metrics.Default.Counter(metrics.NetTxBytes)
	obsRxBytes = metrics.Default.Counter(metrics.NetRxBytes)
	// Buffers taken, by origin (the pool, or fresh), and loans not returned.
	obsRxBufReused = metrics.Default.Counter("fl_net_rx_buf_reused_total")
	obsRxBufAlloc  = metrics.Default.Counter("fl_net_rx_buf_alloc_total")
	obsLoans       = metrics.Default.Gauge("fl_net_buf_loans")
)

// Conn is a bidirectional message stream.
type Conn interface {
	// Send transmits one message.
	Send(msg interface{}) error
	// Recv blocks for the next message; it returns an error when the peer
	// closed the stream. One reader at a time. The byte fields of a message
	// whose wire-table row is leased may alias a receive buffer leased to
	// the reader: they are valid until its next Recv on this Conn or its
	// Release, whichever comes first, unless it Holds them. Every other
	// message owns its bytes.
	Recv() (interface{}, error)
	// Release ends that lease early, so the buffer serves another frame
	// while this reader is busy. Only the goroutine that calls Recv calls
	// it, after its last use of the bytes; with no lease it is a no-op.
	Release()
	// Hold keeps that lease past the next Recv as a Loan (nil: no lease).
	Hold() *Loan
	// Expire bounds the stream's phase: pending and later calls fail once d
	// has passed. Any goroutine may re-arm the one deadline; d ≤ 0 lifts it.
	Expire(d time.Duration)
	// Close tears the stream down; pending Recv calls fail. Any goroutine
	// may call it, so it never ends a lease: the reader may still be reading.
	Close() error
}

// Listener accepts incoming streams.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// --- In-memory transport ---

type memConn struct {
	in, out *simclock.Queue[interface{}]
	clock   simclock.Clock
	closed  atomic.Bool
	mu      sync.Mutex     // guards timer against Close
	timer   simclock.Timer // the deadline, made at the first Expire
	lessee
}

// Pipe returns a connected pair of in-memory streams whose waits park on
// clock — the wall clock when none (or nil) is given.
func Pipe(clock ...simclock.Clock) (Conn, Conn) {
	c := simclock.OrWall(clock...)
	ab, ba := simclock.NewQueue[interface{}](64), simclock.NewQueue[interface{}](64)
	return &memConn{in: ba, out: ab, clock: c}, &memConn{in: ab, out: ba, clock: c}
}

// Send implements Conn. A pre-framed message crosses as itself, with one
// reference to its loan for the reader.
func (c *memConn) Send(msg interface{}) error {
	LoanOf(msg).Acquire()
	if !c.out.Push(msg, c.clock) {
		LoanOf(msg).Release()
		return c.err()
	}
	return nil
}

// Recv implements Conn: a pre-framed message's loan becomes the reader's
// lease. Once the peer has closed, what it sent before is still delivered.
func (c *memConn) Recv() (interface{}, error) {
	c.Release()
	msg, ok := c.in.Pop(c.clock)
	if !ok || c.closed.Load() {
		LoanOf(msg).Release()
		return nil, c.err()
	}
	if e, ok := msg.(*Encoded); ok {
		c.lease, msg = e.loan, e.msg
	}
	return msg, nil
}

// Expire implements Conn with one timer on the pipe's clock that closes it.
func (c *memConn) Expire(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch live := d > 0 && !c.closed.Load(); {
	case live && c.timer == nil:
		c.timer = c.clock.AfterFunc(d, func() { _ = c.Close() })
	case live:
		c.timer.Reset(d)
	case c.timer != nil:
		c.timer.Stop()
	}
}

func (c *memConn) err() error {
	if c.closed.Load() {
		return fmt.Errorf("transport: connection closed")
	}
	return fmt.Errorf("transport: peer closed")
}

// Close implements Conn: both directions close, waking both ends.
// What this end was sent and will not receive gives its loans back.
func (c *memConn) Close() error {
	c.closed.Store(true)
	c.Expire(0)
	c.in.Close()
	c.out.Close()
	for msg, ok := c.in.Pop(nil); ok; msg, ok = c.in.Pop(nil) {
		LoanOf(msg).Release()
	}
	return nil
}

// MemNetwork is an in-memory dial/listen registry keyed by address name.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	clock     simclock.Clock
}

// NewMemNetwork returns an empty network whose connections and listeners
// park their waits on clock — the wall clock when none (or nil) is given.
func NewMemNetwork(clock ...simclock.Clock) *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener), clock: simclock.OrWall(clock...)}
}

type memListener struct {
	addr    string
	backlog *simclock.Queue[Conn]
	net     *MemNetwork
}

// Listen registers a listener at addr.
func (n *MemNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &memListener{addr: addr, backlog: simclock.NewQueue[Conn](128), net: n}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a registered listener.
func (n *MemNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := Pipe(n.clock)
	if !l.backlog.Push(server, n.clock) {
		return nil, fmt.Errorf("transport: listener at %q closed", addr)
	}
	return client, nil
}

// Accept implements Listener.
func (l *memListener) Accept() (Conn, error) {
	if c, ok := l.backlog.Pop(l.net.clock); ok {
		return c, nil
	}
	return nil, fmt.Errorf("transport: listener closed")
}

// Close implements Listener.
func (l *memListener) Close() error {
	l.backlog.Close()
	l.net.mu.Lock()
	if l.net.listeners[l.addr] == l {
		delete(l.net.listeners, l.addr)
	}
	l.net.mu.Unlock()
	return nil
}

// Addr implements Listener.
func (l *memListener) Addr() string { return l.addr }

// --- TCP transport ---

// Wire framing: u32 frame length | u8 wire version | u8 type code |
// payload. The length covers the version and code bytes. Type codes, their
// frame ceilings and their lease classes are rows of the protocol package's
// wire table. The version moves whenever a code is retired or a payload
// layout changes, so a mixed-build link fails on its first frame instead of
// misparsing.
const (
	wireVersion = 3
	// frameOverhead is the version + type-code bytes counted by the length.
	frameOverhead = 2
	// exactAlloc, 4 MiB, is the most a bare header commits (see readPayload).
	exactAllocBits = 22
	exactAlloc     = 1 << exactAllocBits
	// minLeaseBits sizes the smallest leased buffer, 8 KiB, and minLeased is
	// the largest payload still read into a plain allocation: a 2 KB
	// control-sized CheckinResponse or ReportRequest is leased like a 512 KB
	// one, in an 8 KiB buffer.
	minLeaseBits = 13
	minLeased    = 1 << 10
	// maxWhole is the longest frame, header included, Send writes and Recv
	// reads in one piece, in a class-0 buffer. A longer one aliases its byte
	// fields in a vectored write.
	maxWhole = 1 << minLeaseBits
	hdrLen   = 4 + frameOverhead
)

// tcpConn is a TCP stream. Its socket, c, is its system's link
// (sock_linux.go, sock_other.go); each frame goes out in one call that holds
// c's write lock until every byte is written, so frames never interleave.
type tcpConn struct {
	link
	ahead *Loan // a class-0 loan of the bytes read and not yet delivered, or nil
	lessee
}

// Loans are recycled by size class — quarter octaves (2^k × 1, 1.25, 1.5,
// 1.75) from 1<<minLeaseBits to exactAlloc, so a model-sized frame (2^k
// parameters and a header) pins 1.25× its size, not 2×. Recycled memory is
// not zeroed: a buffer reaches the codec only once reads have filled it.
// On linux Recv takes one once the socket is readable: a parked Conn holds none.
//
// rxPool recycles class 0: the read-ahead, Send's scratch and frames up to
// 8 KiB, taken on every small frame.
var rxPool sync.Pool

// rxStock keeps the free buffers of every class above 0 (its [0] is unused),
// last in first out: leases and borrowed frames. A sync.Pool would drop them
// at collections, which come every few rounds when few large frames are in
// flight. A returned buffer is kept only while its class holds fewer, out
// and free, than it had out at once in its current or its last stockWindow
// takes, so after a burst the class falls back to what its rounds use. A
// loan left to the collector, never released, stays counted as out, in the
// bound too: it keeps nothing more.
var rxStock [4*(exactAllocBits-minLeaseBits) + 1]struct {
	sync.Mutex
	free                   []*Loan
	out, peak, last, takes int
}

// stockWindow is how many takes of one class make a window: 256 rounds of
// a 128-device round's leases, both ends counted. Most such rounds have a
// few leases out at once, but now and then one has all 128; a class that
// forgot that peak between two such rounds would allocate them again.
const stockWindow = 1 << 16

// takeLoan counts a loan of class j out and returns a buffer for it, or nil:
// then its caller makes one.
func takeLoan(j int) (l *Loan) {
	if j == 0 {
		l, _ = rxPool.Get().(*Loan)
		return l
	}
	s := &rxStock[j]
	s.Lock()
	defer s.Unlock()
	if s.takes++; s.takes == stockWindow {
		s.takes, s.last, s.peak = 0, s.peak, s.out
	}
	s.out++
	s.peak = max(s.peak, s.out)
	if n := len(s.free); n > 0 {
		l, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	}
	return l
}

// putLoan counts l, a loan of class j, back in and keeps its buffer while
// its class holds fewer than its bound; a take after a window drops one
// kept over the new bound each time it comes back.
func putLoan(j int, l *Loan) {
	if j == 0 {
		rxPool.Put(l)
		return
	}
	s := &rxStock[j]
	s.Lock()
	defer s.Unlock()
	if s.out--; s.out+len(s.free) < max(s.peak, s.last) {
		s.free = append(s.free, l)
	}
}

// rxClassSize is the capacity of class j's buffers: 2^k × (4 + j%4)/4.
func rxClassSize(j int) int { return (4 + j%4) << (minLeaseBits - 2 + j/4) }

// rxClass is the index of the smallest class holding n bytes
// (0 < n ≤ exactAlloc); everything up to 8 KiB shares class 0.
func rxClass(n int) int {
	j := 0
	for rxClassSize(j) < n {
		j++
	}
	return j
}

// leased reports whether a frame's payload is read into a leased buffer: its
// code's row is leased (the two O(dim) device-link messages, StripeSeal,
// whose Sum the coordinator copies out, RoundConfig, which the shard holds)
// and its size is in the pools' range. Other frames outlive the read loop.
func leased(code byte, n int) bool {
	row, _ := protocol.Lookup(code)
	return row.Leased && n > minLeased && n <= exactAlloc
}

// PoisonReleasedForTest makes every buffer that goes back to a pool from now
// on — a released lease, a loan's last Release — fill with 0xDB, so a read
// through an alias that outlived it cannot pass for data. Test-only.
func PoisonReleasedForTest() { poisonReleased.Store(true) }

var poisonReleased atomic.Bool

// lessee holds the lease behind the last message its conn received, if any,
// and implements Conn's Release and Hold. Only the reading goroutine
// touches it.
type lessee struct{ lease *Loan }

// Release implements Conn.
func (h *lessee) Release() {
	h.lease.Release()
	h.lease = nil
}

// Hold implements Conn.
func (h *lessee) Hold() (l *Loan) {
	l, h.lease = h.lease, nil
	return l
}

// Loan is a recycled buffer shared by reference count: its owner's
// reference, one for each TCP Send that writes it, one for each send queued
// for later and one for each in-memory reader that has yet to end its
// lease; the last Release puts it, Loan and all, back. A nil *Loan is no
// loan; Acquire and Release do nothing on it.
type Loan struct {
	b      []byte
	refs   atomic.Int32
	rn     int32 // the raw path's last read(2) onto a read-ahead: bytes, 0 at the end, or -errno; free in its size class
	pooled bool
	origin *metrics.Counter // counts a take for a frame: fresh until pooled
	clock  simclock.Clock   // the rig the loan is counted on: Borrow's
}

// NewLoan returns an n-byte loan from the smallest class holding n, with its
// owner's reference (past the pools' 4 MiB, a plain allocation), uncounted.
func NewLoan(n int) *Loan {
	var l *Loan
	if n > exactAlloc {
		l = &Loan{b: make([]byte, n), origin: obsRxBufAlloc}
	} else if l = takeLoan(rxClass(n)); l == nil {
		l = &Loan{b: make([]byte, rxClassSize(rxClass(n))), pooled: true, origin: obsRxBufAlloc}
	}
	l.b, l.clock = l.b[:n], simclock.Wall
	l.refs.Store(1)
	obsLoans.Add(1)
	return l
}

// Borrow returns a wire.Codec.EncodeInto get that puts an n-byte loan in
// *dst, counted out on clock until its last Release.
func Borrow(dst **Loan, clock simclock.Clock) func(n int) []byte {
	return func(n int) []byte {
		*dst = NewLoan(n)
		(*dst).origin.Inc()
		(*dst).clock = clock
		clock.Lend(1)
		return (*dst).b
	}
}

// Bytes returns the loan's buffer.
func (l *Loan) Bytes() []byte { return l.b }

// Acquire adds a reference; its caller must hold one already. An Acquire
// after the last Release panics until the pool lends the Loan out again.
func (l *Loan) Acquire() {
	if l != nil && l.refs.Add(1) <= 1 {
		panic("transport: Acquire of a loan already returned")
	}
}

// Release drops a reference; the last one returns the buffer.
func (l *Loan) Release() {
	if l == nil {
		return
	}
	switch refs := l.refs.Add(-1); {
	case refs < 0:
		panic("transport: Release of a loan already returned")
	case refs == 0:
		obsLoans.Add(-1)
		l.clock.Lend(-1)
		if b := l.b[:cap(l.b)]; l.pooled {
			if poisonReleased.Load() {
				for i := range b {
					b[i] = 0xDB
				}
			}
			l.origin = obsRxBufReused
			putLoan(rxClass(len(b)), l)
		}
	}
}

// Encoded is a message marshaled at most once for sending to many peers
// (one round's CheckinResponse to every device of a runtime version): a TCP
// conn frames it on first send — in one piece up to maxWhole bytes, else in
// immutable segments aliasing its byte fields — and every later send writes
// those bytes; the in-memory transport delivers the original, lending its
// reader the loan behind it. One Encoded may be sent concurrently over any
// number of conns.
type Encoded struct {
	msg  interface{}
	loan *Loan

	once  sync.Once
	whole []byte
	parts [][]byte
	err   error
}

// Message returns the wrapped message.
func (e *Encoded) Message() interface{} { return e.msg }

// Lend wraps msg, whose byte fields alias loan's buffer, for repeated
// sending.
func Lend(msg interface{}, loan *Loan) *Encoded { return &Encoded{msg: msg, loan: loan} }

// LoanOf returns the loan behind a message Lend wrapped, nil for any other.
func LoanOf(msg interface{}) *Loan {
	if e, ok := msg.(*Encoded); ok {
		return e.loan
	}
	return nil
}

// marshaled returns the cached frame, building it on first use.
func (e *Encoded) marshaled() ([]byte, [][]byte, error) {
	e.once.Do(func() {
		e.whole, e.parts, e.err = frame(e.msg, nil, nil)
	})
	return e.whole, e.parts, e.err
}

// frame encodes msg as one frame, header included, after buf[:0]: whole in
// buf when it is at most maxWhole bytes (parts empty), else as segments
// appended to parts[:0] — the header and metadata in buf, every non-empty
// byte field aliased, never copied.
func frame(msg interface{}, buf []byte, parts [][]byte) ([]byte, [][]byte, error) {
	size := protocol.Size(msg)
	code, buf, parts := protocol.AppendBinary(append(buf[:0], make([]byte, hdrLen)...), parts[:0], msg, hdrLen+size > maxWhole)
	if code == 0 {
		return nil, parts, fmt.Errorf("transport: %T has no wire codec", msg)
	}
	if row, _ := protocol.Lookup(code); frameOverhead+size > row.Ceiling {
		return nil, parts, fmt.Errorf("transport: %s of %d bytes exceeds its frame ceiling", row.Name, size)
	}
	binary.BigEndian.PutUint32(buf, uint32(frameOverhead+size))
	buf[4], buf[5] = wireVersion, code
	return buf, parts, nil
}

// Send implements Conn. A frame of at most maxWhole bytes goes out in one
// write from a class-0 scratch buffer, a longer one in one vectored write
// from the caller's buffers; an Encoded message writes its cached frame.
func (t *tcpConn) Send(msg interface{}) error {
	var whole []byte
	var parts [][]byte
	var err error
	w := vecWrites.Get().(*vecWrite)
	defer vecWrites.Put(w)
	if e, ok := msg.(*Encoded); ok {
		e.loan.Acquire()
		defer e.loan.Release()
		whole, parts, err = e.marshaled()
	} else {
		// Scratch, held only inside this call: no counter sees it.
		b, _ := rxPool.Get().(*Loan)
		if b == nil {
			b = &Loan{b: make([]byte, rxClassSize(0)), pooled: true, origin: obsRxBufAlloc}
		}
		defer rxPool.Put(b)
		whole, w.parts, err = frame(msg, b.b, w.parts)
		parts = w.parts
	}
	var wrote int
	switch {
	case err != nil:
	case len(parts) == 0:
		wrote, err = t.c.Write(whole)
	default:
		wrote, err = w.write(t, parts)
	}
	clear(w.parts) // segments kept in the pool would pin their buffers
	obsTxBytes.Add(int64(wrote))
	return err
}

// RecvInto is c.Recv for a reader that holds the message it expects: one of
// type T lands in *dst, and RecvInto returns dst; any other arrives as Recv
// delivers it. A TCP conn decodes it there (protocol.UnmarshalInto), with no
// box; any other conn's is copied.
func RecvInto[T protocol.CheckinRequest | protocol.ReportRequest](c Conn, dst *T) (interface{}, error) {
	if t, ok := c.(*tcpConn); ok {
		return t.recv(dst)
	}
	msg, err := c.Recv()
	if m, ok := msg.(T); ok {
		*dst, msg = m, dst
	}
	return msg, err
}

// Recv implements Conn.
func (t *tcpConn) Recv() (interface{}, error) { return t.recv(nil) }

// recv is Recv into dst (RecvInto). A frame of at most maxWhole bytes arrives
// in one read into the read-ahead buffer, which a leased one keeps as its
// lease; a longer frame's payload starts with the bytes already read. The
// header's errors are out of line: a session's goroutine starts on a 2 KiB
// stack.
func (t *tcpConn) recv(dst any) (interface{}, error) {
	t.Release()
	code, size, lease, err := byte(0), 0, false, t.fillTo(hdrLen)
	if err == nil {
		code, size, lease, err = t.header()
	}
	whole := hdrLen + size
	if err == nil && whole <= maxWhole {
		err = t.fillTo(whole)
	}
	if err != nil { // a read or a header failed: drop its bytes
		t.ahead.Release()
		t.ahead = nil
		return nil, err
	}
	var payload []byte
	switch buf := t.ahead; {
	case whole > maxWhole:
		var into []byte
		if lease {
			t.lease = NewLoan(size)
			t.lease.origin.Inc()
			into = t.lease.b
		}
		payload, err = readPayload(t.c, buf.b[hdrLen:], size, into)
		whole = len(buf.b)
	case lease:
		payload, t.lease = buf.b[hdrLen:whole], buf
		buf.origin.Inc()
	default:
		payload = append([]byte(nil), buf.b[hdrLen:whole]...)
	}
	// Bytes read past the frame move to a read-ahead buffer no lease shares.
	if buf := t.ahead; len(buf.b) > whole {
		if buf == t.lease {
			t.ahead = NewLoan(0)
		}
		t.ahead.b = append(t.ahead.b[:0], buf.b[whole:]...)
	} else if t.ahead = nil; buf != t.lease {
		buf.Release()
	}
	if err == nil {
		obsRxBytes.Add(int64(hdrLen + size))
		var msg interface{}
		if msg, err = protocol.UnmarshalInto(dst, code, payload); err == nil {
			return msg, nil
		}
	}
	t.Release() // no message delivered, so nothing aliases the lease
	return nil, err
}

// header checks the frame header in the read-ahead buffer and returns its
// code, its payload's size and whether that is leased.
//
//go:noinline
func (t *tcpConn) header() (code byte, size int, lease bool, err error) {
	hdr := t.ahead.b
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	code, size = hdr[5], n-frameOverhead
	row, ok := protocol.Lookup(code)
	switch {
	case n < frameOverhead:
		err = fmt.Errorf("transport: bad frame length %d", n)
	case hdr[4] != wireVersion:
		err = fmt.Errorf("transport: unsupported wire version %d", hdr[4])
	case !ok:
		err = fmt.Errorf("transport: unknown type code %d", code)
	case n > row.Ceiling:
		err = fmt.Errorf("transport: %s frame of %d bytes exceeds its ceiling of %d", row.Name, n, row.Ceiling)
	}
	return code, size, leased(code, size), err
}

// fillTo reads until the read-ahead buffer holds n ≤ maxWhole bytes.
func (t *tcpConn) fillTo(n int) error {
	for t.ahead == nil || len(t.ahead.b) < n {
		if err := t.fillOnce(); err != nil {
			return err
		}
	}
	return nil
}

// readPayload reads an n-byte payload, which starts with got, into buf: a
// lease of n bytes, or nil. Without one, up to exactAlloc the buffer is
// allocated in one piece; beyond that it grows geometrically as bytes
// actually arrive, so a hostile length prefix can only commit memory by
// sending that much data — an 8-byte header promising a gigabyte costs the
// receiver 4 MiB, not 1 GiB.
func readPayload(r io.Reader, got []byte, n int, buf []byte) ([]byte, error) {
	if buf == nil {
		buf = make([]byte, min(n, exactAlloc))
	}
	if _, err := io.ReadFull(r, buf[copy(buf, got):]); err != nil || len(buf) == n {
		return buf, err
	}
	for len(buf) < n {
		next := 2 * len(buf)
		if next > n {
			next = n
		}
		grown := make([]byte, next)
		copy(grown, buf)
		if _, err := io.ReadFull(r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}

// Expire implements Conn with the socket's deadline: no timer of the process.
func (t *tcpConn) Expire(d time.Duration) {
	var at time.Time
	if d > 0 {
		at = time.Now().Add(d)
	}
	_ = t.c.SetDeadline(at)
}

// Close implements Conn.
func (t *tcpConn) Close() error { return t.c.Close() }

// Decodes reports whether c decodes what it receives, so its reader owns
// every decoded map; an in-memory conn delivers the sender's own values.
func Decodes(c Conn) bool {
	_, ok := c.(*tcpConn)
	return ok
}

// tcpListener accepts through its system's acceptor (sock_linux.go,
// sock_other.go).
type tcpListener struct {
	acceptor
	addr string
	done chan struct{} // closed by Close: ends a backoff
	once sync.Once
}

// ListenTCP listens on a TCP address; ":0" picks a free port. Accepted
// sockets run with TCP_NODELAY and without kernel keepalive: every server
// phase has a protocol bound.
func ListenTCP(addr string) (Listener, error) {
	l, err := (&net.ListenConfig{KeepAlive: -1}).Listen(context.Background(), "tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &tcpListener{addr: l.Addr().String(), done: make(chan struct{})}
	if err = t.adopt(l.(*net.TCPListener)); err != nil {
		return nil, err
	}
	return t, nil
}

// Accept implements Listener. Out of descriptors or kernel memory, it tries
// again after a backoff, 5 ms doubling to 1 s as net/http's Server does, so
// that a burst past the limit does not end its caller's accept loop; Close
// ends the wait.
func (t *tcpListener) Accept() (Conn, error) {
	for wait := 5 * time.Millisecond; ; wait = min(2*wait, time.Second) {
		switch c, err := t.acceptOnce(); {
		case err == nil:
			return c, nil
		case outOfResources(err):
			select {
			case <-time.After(wait):
			case <-t.done:
			}
		default:
			return nil, err
		}
	}
}

// outOfResources reports whether an accept failed for want of descriptors or
// kernel memory. Winsock fails with WSAEMFILE (10024) or WSAENOBUFS (10055),
// which syscall does not name: its windows EMFILE and ENOBUFS are invented.
func outOfResources(err error) bool {
	var errno syscall.Errno
	return errors.As(err, &errno) && slices.Contains([]syscall.Errno{
		syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM, 10024, 10055}, errno)
}

// Close implements Listener; a parked Accept returns an error.
func (t *tcpListener) Close() error {
	t.once.Do(func() { close(t.done) })
	return t.sock.Close()
}

// Addr implements Listener.
func (t *tcpListener) Addr() string { return t.addr }

// DialTCP connects to a TCP FL server with TCP_NODELAY and keepalive, which
// is how a device, whose waits have no bound, learns that its server died. An
// IP literal without a zone takes dial; a host name or a zoned literal goes
// through net.Dialer. A zone is an interface's index or name: one that no
// interface has fails here, where net would dial it as zone 0.
func DialTCP(addr string) (Conn, error) {
	if ap, err := netip.ParseAddrPort(addr); err == nil {
		if zone := ap.Addr().Zone(); zone == "" {
			return dial(ap)
		} else if _, err := strconv.ParseUint(zone, 10, 32); err != nil {
			if _, err := net.InterfaceByName(zone); err != nil {
				return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
			}
		}
	}
	return wrapNet(new(net.Dialer).Dial("tcp", addr))
}
