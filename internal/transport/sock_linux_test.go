//go:build linux && !386

package transport

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/protocol"
)

// Properties only the raw path has (sock_linux.go): a dial and its accept
// allocate no address of either end, a socket keeps no iovec cache, and a
// reader parked in Recv holds no buffer. On the portable path net keeps the
// addresses and a per-socket iovec cache, and a blocking Read takes its
// buffer before it parks.

// TestDialAcceptAllocs is the per-connection tripwire: one DialTCP of an IP
// literal, its Accept and both Closes allocate at most 10 objects and 328 B,
// both tcpConns included — no address of either end, no per-socket iovecs,
// no read closure (8 objects and 320 B measured; 10 and 352 with a closure
// per socket).
func TestDialAcceptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops Puts: the bound cannot hold")
	}
	l := listen(t, "127.0.0.1:0")
	pair := func() {
		c, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		s.Close()
	}
	const n = 2000
	objects := testing.AllocsPerRun(n, pair)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("a dial, its accept and both closes: %v objects, %.0f B", objects, bytes)
	if objects > 10 || bytes > 328 {
		t.Fatalf("a dial+accept pair allocates %v objects and %.0f B, want at most 10 and 328", objects, bytes)
	}
}

// TestSendAllocs is the send path's allocation tripwire: Send of a control
// frame, of a pre-framed CheckinResponse and of a 512 KiB report allocates
// nothing — header and scratch are the conn's or the pool's, a vectored
// write's segments and iovecs the pool's — once warm, and as the first Send
// on a fresh socket, which keeps no iovecs of its own.
func TestSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops Puts: the bound cannot hold")
	}
	for name, msg := range map[string]interface{}{
		"checkin request":      protocol.CheckinRequest{DeviceID: "d", Population: "pop", RuntimeVersion: 3, AttestationToken: []byte{1, 2}},
		"report response":      protocol.ReportResponse{Accepted: true, RetryAfter: time.Second},
		"control-sized report": leaseReport(patterned(1<<9, 1)),
		"pre-framed response":  Encode(leaseCheckin(patterned(1<<10, 2))),
		"512 KiB report":       leaseReport(patterned(leaseSize, 3)),
	} {
		t.Run(name, func(t *testing.T) {
			conn := drained(t)
			if n := testing.AllocsPerRun(50, func() { _ = conn.Send(msg) }); n != 0 {
				t.Fatalf("Send allocates %v times per call, want 0", n)
			}
			fresh := make([]*tcpConn, 11) // AllocsPerRun's warm-up and ten runs
			for i := range fresh {
				fresh[i] = drained(t)
			}
			i := 0
			if n := testing.AllocsPerRun(10, func() { _ = fresh[i].Send(msg); i++ }); n != 0 {
				t.Fatalf("the first Send on a fresh socket allocates %v times, want 0", n)
			}
		})
	}
}

// TestParkedConnsHoldNoBuffer: a thousand connections whose readers wait in
// Recv hold no read-ahead buffer and no lease — fl_net_buf_loans reads its
// baseline — after each has received a leased and an owned frame.
func TestParkedConnsHoldNoBuffer(t *testing.T) {
	const conns = 1000
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := loansOut()
	received := make(chan error, 2*conns)
	var clients []Conn
	for i := 0; i < conns; i++ {
		client, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close(); server.Close() })
		clients = append(clients, client)
		go func() {
			for {
				if _, err := server.Recv(); err != nil {
					return
				}
				received <- nil
			}
		}()
	}
	report := Encode(leaseReport(patterned(2000, 5)))
	for _, c := range clients {
		if err := c.Send(report); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(protocol.Heartbeat{Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*conns; i++ {
		select {
		case <-received:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d frames received", i, 2*conns)
		}
	}
	// A reader that received its last frame is on its way back into Recv,
	// where a read that finds nothing puts the buffer back: wait for all.
	deadline := time.Now().Add(10 * time.Second)
	for loansOut() != before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		if got := loansOut() - before; got != 0 {
			t.Fatalf("%v buffers held by %d parked connections, want 0", got, conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
