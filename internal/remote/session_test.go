package remote

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// gatedConn passes one Send per token on gate, so a test decides when the
// session's writer gets past the message it is writing. Closing the conn
// closes the gate, which lets a writer already at it through.
type gatedConn struct {
	transport.Conn
	gate chan struct{}
	once *sync.Once
}

func (c gatedConn) Send(msg interface{}) error {
	<-c.gate
	return c.Conn.Send(msg)
}

func (c gatedConn) Close() error {
	c.once.Do(func() { close(c.gate) })
	return c.Conn.Close()
}

// TestQueuedSendHoldsItsLoan: a loaned message waiting in a session's send
// queue holds its own reference, so the caller may drop its own at once and
// the TCP peer still reads the bytes intact (released buffers are
// poisoned); and what a closed session leaves queued goes back unsent by the
// time Close returns, which waits for the writer.
func TestQueuedSendHoldsItsLoan(t *testing.T) {
	transport.PoisonReleasedForTest()
	loans := metrics.Default.Gauge("fl_net_buf_loans")
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := transport.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	base := loans.Value()
	conn := gatedConn{Conn: raw, gate: make(chan struct{}), once: new(sync.Once)}
	sess := NewSession(conn, SessionOptions{})
	defer sess.Close()

	const n = 512 << 10
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i * 7)
	}
	// send queues a heartbeat the writer stops at, then a loaned seal
	// behind it, and drops the caller's reference to the seal's loan.
	send := func(round int64) {
		t.Helper()
		loan := transport.NewLoan(n)
		copy(loan.Bytes(), want)
		for _, msg := range []interface{}{protocol.Heartbeat{Seq: uint64(round)},
			transport.Lend(protocol.StripeSeal{Round: round, Sum: loan.Bytes()}, loan)} {
			if err := sess.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		loan.Release()
		// What the pool hands out next must not be the queued seal's buffer.
		other := transport.NewLoan(n)
		copy(other.Bytes(), bytes.Repeat([]byte{0x55}, n))
		other.Release()
	}
	for round := int64(1); round <= 3; round++ {
		send(round)
		conn.gate <- struct{}{}
		conn.gate <- struct{}{}
		for _, kind := range []string{"heartbeat", "seal"} {
			msg, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if seal, ok := msg.(protocol.StripeSeal); kind == "seal" && (!ok || seal.Round != round || !bytes.Equal(seal.Sum, want)) {
				t.Fatalf("round %d: the queued seal arrived damaged or not at all: %T", round, msg)
			}
			server.Release()
		}
	}
	// A heartbeat the writer took after the last seal has crossed.
	if err := sess.Send(protocol.Heartbeat{Seq: 99}); err != nil {
		t.Fatal(err)
	}
	conn.gate <- struct{}{}
	if msg, err := server.Recv(); err != nil || msg != (protocol.Heartbeat{Seq: 99}) {
		t.Fatalf("read %v (%v), want the heartbeat after the seals", msg, err)
	}
	if got := loans.Value(); got != base {
		t.Fatalf("the written seals' loans: %v loans out, want %v", got, base)
	}

	// The writer holds no token when the session closes, so the seal is
	// still queued behind the heartbeat: it is released, not written.
	send(4)
	sess.Close()
	if got := loans.Value(); got != base {
		t.Fatalf("the loan a closed session left queued: %v loans out, want %v", got, base)
	}
	if sess.Send(transport.Lend(protocol.StripeSeal{}, nil)) == nil {
		t.Fatal("Send on a closed session succeeded")
	}
}
