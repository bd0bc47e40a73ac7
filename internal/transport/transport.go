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
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

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
	// maxWhole is the longest frame, header included, Send writes in one
	// piece from a pooled scratch buffer: the smallest leased buffer's size.
	// A longer one aliases its byte fields in a vectored write.
	maxWhole = 1 << minLeaseBits
	hdrLen   = 4 + frameOverhead
)

type tcpConn struct {
	c net.Conn
	// sendMu serializes writers: frames must not interleave. Under it,
	// slots holds a vectored write's segments.
	sendMu sync.Mutex
	slots  net.Buffers
	// rxHdr is the reader's frame header.
	rxHdr [hdrLen]byte
	lessee
}

// scratch holds the frames Send writes in one piece, and the header and
// metadata of longer ones. It is not a lease: rxPools' counters do not see it.
var scratch = sync.Pool{New: func() any { b := make([]byte, maxWhole); return &b }}

// rxPools recycles the payload buffers of large device-link frames, one
// pool per quarter-octave class (2^k × 1, 1.25, 1.5, 1.75) from
// 1<<minLeaseBits to exactAlloc, so a model-sized frame (2^k parameters and
// a header) pins 1.25× its size, not 2×. Pooled memory is not zeroed: a
// buffer reaches the codec only once ReadFull has filled it. Recv takes one
// after the header, so a parked Conn holds none.
var rxPools [4*(exactAllocBits-minLeaseBits) + 1]sync.Pool

// rxClassSize is the capacity of class j's buffers: 2^k × (4 + j%4)/4.
func rxClassSize(j int) int { return (4 + j%4) << (minLeaseBits - 2 + j/4) }

// rxClass is the rxPools index of the smallest class holding n bytes
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

// Loan is a buffer from rxPools shared by reference count: its owner's
// reference, one for each TCP Send that writes it, one for each send queued
// for later and one for each in-memory reader that has yet to end its
// lease; the last Release puts it back. A nil *Loan is no loan; Acquire and
// Release do nothing on it.
type Loan struct {
	p      *[]byte
	pooled bool
	refs   atomic.Int32
}

// NewLoan returns an n-byte loan from the smallest class holding n, with its
// owner's reference; past the pools' 4 MiB, a plain allocation.
func NewLoan(n int) *Loan {
	l := &Loan{}
	l.refs.Store(1)
	obsLoans.Add(1)
	if n > exactAlloc {
		b := make([]byte, n)
		l.p = &b
		return l
	}
	class, ok := rxClass(n), false
	if l.p, ok = rxPools[class].Get().(*[]byte); !ok {
		obsRxBufAlloc.Inc()
		b := make([]byte, rxClassSize(class))
		l.p = &b
	} else {
		obsRxBufReused.Inc()
	}
	*l.p, l.pooled = (*l.p)[:n], true
	return l
}

// Borrow returns a wire.Codec.EncodeInto get that puts an n-byte loan in *dst.
func Borrow(dst **Loan) func(n int) []byte {
	return func(n int) []byte { *dst = NewLoan(n); return (*dst).Bytes() }
}

// Bytes returns the loan's buffer.
func (l *Loan) Bytes() []byte { return *l.p }

// Acquire adds a reference; its caller must hold one already. An Acquire
// after the last Release panics: the buffer may serve another frame.
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
		if b := (*l.p)[:cap(*l.p)]; l.pooled {
			if poisonReleased.Load() {
				for i := range b {
					b[i] = 0xDB
				}
			}
			rxPools[rxClass(len(b))].Put(l.p)
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
// write(2), from a pooled scratch buffer; a longer one — a multi-MB device
// update or plan+checkpoint — in one vectored write straight from the
// caller's buffers, never copied into a frame. An Encoded message writes its
// cached frame instead of re-marshaling.
func (t *tcpConn) Send(msg interface{}) error {
	var whole []byte
	var err error
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if e, ok := msg.(*Encoded); ok {
		e.loan.Acquire()
		defer e.loan.Release()
		var parts [][]byte
		whole, parts, err = e.marshaled()
		t.slots = append(t.slots[:0], parts...) // WriteTo clears what it consumes
	} else {
		b := scratch.Get().(*[]byte)
		defer scratch.Put(b)
		whole, t.slots, err = frame(msg, *b, t.slots)
	}
	var wrote int64
	switch {
	case err != nil:
	case len(t.slots) == 0:
		var n int
		n, err = t.c.Write(whole)
		wrote = int64(n)
	default:
		segs := t.slots // WriteTo consumes the slice it is called on
		wrote, err = t.slots.WriteTo(t.c)
		t.slots = segs
	}
	clear(t.slots) // segments a write did not consume would pin their buffers
	obsTxBytes.Add(wrote)
	return err
}

// Recv implements Conn.
func (t *tcpConn) Recv() (interface{}, error) {
	t.Release()
	hdr := t.rxHdr[:]
	if _, err := io.ReadFull(t.c, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n < frameOverhead {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if hdr[4] != wireVersion {
		return nil, fmt.Errorf("transport: unsupported wire version %d", hdr[4])
	}
	code := hdr[5]
	row, ok := protocol.Lookup(code)
	if !ok {
		return nil, fmt.Errorf("transport: unknown type code %d", code)
	}
	if n > row.Ceiling {
		return nil, fmt.Errorf("transport: %s frame of %d bytes exceeds its ceiling of %d", row.Name, n, row.Ceiling)
	}
	size, read := n-frameOverhead, readPayload
	if leased(code, size) {
		read = t.readLeased
	}
	payload, err := read(t.c, size)
	if err != nil {
		t.Release()
		return nil, err
	}
	obsRxBytes.Add(int64(len(hdr) + len(payload)))
	msg, err := protocol.UnmarshalBinary(code, payload)
	if err != nil {
		t.Release() // no message delivered, so nothing aliases the buffer
	}
	return msg, err
}

// readLeased reads an n-byte payload into a buffer leased from rxPools.
func (t *tcpConn) readLeased(r io.Reader, n int) ([]byte, error) {
	t.lease = NewLoan(n)
	_, err := io.ReadFull(r, t.lease.Bytes())
	return t.lease.Bytes(), err
}

// readPayload reads an n-byte payload. Up to exactAlloc the buffer is
// allocated in one piece; beyond that it grows geometrically as bytes
// actually arrive, so a hostile length prefix can only commit memory by
// sending that much data — an 8-byte header promising a gigabyte costs the
// receiver 4 MiB, not 1 GiB.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= exactAlloc {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, exactAlloc)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
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

// Close implements Conn.
func (t *tcpConn) Close() error { return t.c.Close() }

func wrapTCP(c net.Conn) Conn {
	return &tcpConn{c: c}
}

type tcpListener struct{ l net.Listener }

// ListenTCP listens on a TCP address; ":0" picks a free port.
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// DialTCP connects to a TCP FL server.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return wrapTCP(c), nil
}

// Accept implements Listener.
func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return wrapTCP(c), nil
}

// Close implements Listener.
func (t *tcpListener) Close() error { return t.l.Close() }

// Addr implements Listener.
func (t *tcpListener) Addr() string { return t.l.Addr().String() }
