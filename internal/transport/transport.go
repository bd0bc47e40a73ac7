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
	"math/bits"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/protocol"
)

// Process-wide TCP frame byte counters (headers included). Plain atomic
// adds on the send/recv paths — the accounting must not add allocations to
// the report hot loop. The in-memory transport never frames, so it counts
// nothing; /dashboard traffic totals reflect real wire bytes only.
var (
	obsTxBytes = metrics.Default.Counter(metrics.NetTxBytes)
	obsRxBytes = metrics.Default.Counter(metrics.NetRxBytes)
	// Leased receive buffers, by origin: the pool, or a fresh allocation.
	obsRxBufReused = metrics.Default.Counter("fl_net_rx_buf_reused_total")
	obsRxBufAlloc  = metrics.Default.Counter("fl_net_rx_buf_alloc_total")
)

// Conn is a bidirectional message stream.
type Conn interface {
	// Send transmits one message.
	Send(msg interface{}) error
	// Recv blocks for the next message; it returns an error when the peer
	// closed the stream. One reader at a time. The byte fields of a
	// CheckinResponse, ReportRequest or StripeSeal may alias a receive buffer
	// leased to the reader: they are valid until its next Recv on this Conn
	// or its Release, whichever comes first. Every other message owns its
	// bytes.
	Recv() (interface{}, error)
	// Release ends that lease early, so the buffer serves another frame
	// while this reader is busy. Only the goroutine that calls Recv calls
	// it, after its last use of the bytes; with no lease it is a no-op.
	Release()
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
	in     <-chan interface{}
	out    chan<- interface{}
	done   chan struct{}
	peer   *memConn
	closeO sync.Once
}

// Pipe returns a connected pair of in-memory streams.
func Pipe() (Conn, Conn) {
	ab := make(chan interface{}, 64)
	ba := make(chan interface{}, 64)
	a := &memConn{in: ba, out: ab, done: make(chan struct{})}
	b := &memConn{in: ab, out: ba, done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn.
func (c *memConn) Send(msg interface{}) error {
	// Pre-framed messages exist for the TCP wire; deliver the original.
	if e, ok := msg.(*Encoded); ok {
		msg = e.msg
	}
	// Check closure before attempting the buffered send; otherwise a ready
	// buffer slot could win the select against a closed-peer signal.
	select {
	case <-c.done:
		return fmt.Errorf("transport: connection closed")
	case <-c.peer.done:
		return fmt.Errorf("transport: peer closed")
	default:
	}
	select {
	case <-c.done:
		return fmt.Errorf("transport: connection closed")
	case <-c.peer.done:
		return fmt.Errorf("transport: peer closed")
	case c.out <- msg:
		return nil
	}
}

// Recv implements Conn.
func (c *memConn) Recv() (interface{}, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.done:
		return nil, fmt.Errorf("transport: connection closed")
	case <-c.peer.done:
		// Drain anything already buffered before reporting closure.
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, fmt.Errorf("transport: peer closed")
		}
	}
}

// Release implements Conn: messages cross as Go values, so nothing is leased.
func (c *memConn) Release() {}

// Close implements Conn.
func (c *memConn) Close() error {
	c.closeO.Do(func() { close(c.done) })
	return nil
}

// MemNetwork is an in-memory dial/listen registry keyed by address name.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMemNetwork returns an empty network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

type memListener struct {
	addr    string
	backlog chan Conn
	done    chan struct{}
	once    sync.Once
	net     *MemNetwork
}

// Listen registers a listener at addr.
func (n *MemNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &memListener{addr: addr, backlog: make(chan Conn, 128), done: make(chan struct{}), net: n}
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
	client, server := Pipe()
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: listener at %q closed", addr)
	}
}

// Accept implements Listener.
func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: listener closed")
	}
}

// Close implements Listener.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements Listener.
func (l *memListener) Addr() string { return l.addr }

// --- TCP transport ---

// Wire framing: u32 frame length | u8 wire version | u8 type code |
// payload. The length covers the version and code bytes. Type codes are the
// protocol package's. The version moves whenever a code is retired or a
// payload layout changes, so a mixed-build link fails on its first frame
// instead of misparsing.
const (
	wireVersion = 2
	// frameOverhead is the version + type-code bytes counted by the length.
	frameOverhead = 2
	// maxFrame bounds a single message so a corrupt or hostile length
	// prefix cannot ask Recv to allocate unbounded memory.
	maxFrame = 1 << 30
	// exactAlloc, 4 MiB, is the most a bare header commits (see readPayload).
	exactAllocBits = 22
	exactAlloc     = 1 << exactAllocBits
	// minLeaseBits sizes the smallest leased buffer, 8 KiB, and minLeased is
	// the largest payload still read into a plain allocation: a 2 KB
	// control-sized CheckinResponse or ReportRequest is leased like a 512 KB
	// one, in an 8 KiB buffer.
	minLeaseBits = 13
	minLeased    = 1 << 10
)

type tcpConn struct {
	c net.Conn
	// sendMu serializes writers: frames must not interleave.
	sendMu sync.Mutex
	// lease is the pooled buffer behind the last received message, if any.
	// Only the reading goroutine touches it.
	lease *[]byte
}

// rxPools recycles the payload buffers of large device-link frames, one
// pool per power-of-two capacity from 1<<minLeaseBits to exactAlloc. Pooled
// memory is not zeroed: a buffer reaches the codec only once ReadFull has
// filled it. Recv takes one after the header, so a parked Conn holds none.
var rxPools [exactAllocBits - minLeaseBits + 1]sync.Pool

// rxClass is the rxPools index of the smallest buffer holding n bytes
// (n > 0); everything up to 8 KiB shares class 0.
func rxClass(n int) int { return max(bits.Len(uint(n-1))-minLeaseBits, 0) }

// leased reports whether a frame's payload is read into a leased buffer:
// the two O(dim) device-link messages and the shard's StripeSeal, each
// consumed before its reader's next Recv (a StripeSeal aliases only its Sum,
// which the coordinator process copies out on the session reader). The other
// peer-link frames go to actor mailboxes and outlive the read loop.
func leased(code byte, n int) bool {
	return (code == protocol.CodeCheckinResponse || code == protocol.CodeReportRequest || code == protocol.CodeStripeSeal) &&
		n > minLeased && n <= exactAlloc
}

// PoisonReleasedForTest makes every Release from now on fill the buffer
// with 0xDB, so a read through an alias that outlived its lease cannot pass
// for data. Test-only.
func PoisonReleasedForTest() { poisonReleased.Store(true) }

var poisonReleased atomic.Bool

// Release implements Conn.
func (t *tcpConn) Release() {
	if t.lease == nil {
		return
	}
	if buf := *t.lease; poisonReleased.Load() {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	rxPools[rxClass(cap(*t.lease))].Put(t.lease)
	t.lease = nil
}

// Encoded is a message marshaled at most once for transmission to many
// peers — e.g. one round's CheckinResponse fanned out to every device of a
// runtime version, where re-marshaling the multi-MB plan+checkpoint
// payload per device would copy it O(devices) times. TCP conns lazily
// marshal on first send and then reuse the cached payload; the in-memory
// transport delivers the original message and never marshals at all. The
// cached payload is immutable once built (sync.Once publishes it), so one
// Encoded value may be sent concurrently over any number of connections.
type Encoded struct {
	msg interface{}

	once  sync.Once
	code  byte
	parts [][]byte
	size  int
	err   error
}

// Message returns the wrapped message.
func (e *Encoded) Message() interface{} { return e.msg }

// Encode wraps msg for repeated sending.
func Encode(msg interface{}) *Encoded { return &Encoded{msg: msg} }

// marshaled returns the cached (code, parts, total size), building them on
// first use.
func (e *Encoded) marshaled() (byte, [][]byte, int, error) {
	e.once.Do(func() {
		e.code, e.parts, e.size, e.err = marshalFrame(e.msg)
	})
	return e.code, e.parts, e.size, e.err
}

// marshalFrame produces the type code + payload segments for one frame
// (exact-size metadata buffers with the large update/plan/checkpoint fields
// aliased, never copied). size is the summed payload length.
func marshalFrame(msg interface{}) (byte, [][]byte, int, error) {
	code, parts, ok := protocol.MarshalBinaryParts(msg)
	if !ok {
		return 0, nil, 0, fmt.Errorf("transport: %T has no wire codec", msg)
	}
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	if size > maxFrame-frameOverhead {
		return 0, nil, 0, fmt.Errorf("transport: message of %d bytes exceeds frame limit", size)
	}
	return code, parts, size, nil
}

// Send implements Conn. Every message goes out as a single vectored write
// (header + payload segments, no intermediate buffer): a multi-MB device
// update or plan+checkpoint payload is written straight from the caller's
// buffer, never copied into a frame. An Encoded message reuses its cached
// segments instead of re-marshaling.
func (t *tcpConn) Send(msg interface{}) error {
	var code byte
	var parts [][]byte
	var size int
	var err error
	if e, ok := msg.(*Encoded); ok {
		code, parts, size, err = e.marshaled()
	} else {
		code, parts, size, err = marshalFrame(msg)
	}
	if err != nil {
		return err
	}
	var hdr [4 + frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(frameOverhead+size))
	hdr[4] = wireVersion
	hdr[5] = code

	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	bufs := make(net.Buffers, 0, 1+len(parts))
	bufs = append(bufs, hdr[:])
	for _, p := range parts {
		if len(p) > 0 {
			bufs = append(bufs, p)
		}
	}
	wrote, err := bufs.WriteTo(t.c)
	obsTxBytes.Add(wrote)
	return err
}

// Recv implements Conn.
func (t *tcpConn) Recv() (interface{}, error) {
	t.Release()
	var hdr [4 + frameOverhead]byte
	if _, err := io.ReadFull(t.c, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < frameOverhead || n > maxFrame {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if hdr[4] != wireVersion {
		return nil, fmt.Errorf("transport: unsupported wire version %d", hdr[4])
	}
	code := hdr[5]
	if !protocol.KnownCode(code) {
		return nil, fmt.Errorf("transport: unknown type code %d", code)
	}
	size, read := int(n-frameOverhead), readPayload
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
	class := rxClass(n)
	p, ok := rxPools[class].Get().(*[]byte)
	if ok {
		obsRxBufReused.Inc()
	} else {
		obsRxBufAlloc.Inc()
		b := make([]byte, 1<<(minLeaseBits+class))
		p = &b
	}
	t.lease = p
	_, err := io.ReadFull(r, (*p)[:n])
	return (*p)[:n], err
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
