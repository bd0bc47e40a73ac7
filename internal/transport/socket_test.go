package transport

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// The TCP link's sockets, on either path: on linux but 386 the transport's own
// descriptors (ListenTCP accepts with accept4(2) on a descriptor of the
// listening socket, DialTCP of an IP literal connects a socket it opened, and
// a long frame is one writev(2) from pooled iovecs), elsewhere net's.

// listen is a loopback listener closed with the test.
func listen(t *testing.T, addr string) Listener {
	t.Helper()
	l, err := ListenTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestListenerCloseUnblocksTCPAccept: Close wakes an Accept parked on an
// idle listener, which returns an error, as do Accepts after it.
func TestListenerCloseUnblocksTCPAccept(t *testing.T) {
	l := listen(t, "127.0.0.1:0")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Accept park
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept returned a conn after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("Accept on a closed listener succeeded")
	}
}

// TestDialTriesEachAddress: a literal that refuses fails the dial. (A host
// name's addresses, and their order, are net.Dialer's.)
func TestDialTriesEachAddress(t *testing.T) {
	l := listen(t, "127.0.0.1:0")
	// the listener is bound to 127.0.0.1 only
	if _, err := DialTCP("127.0.0.2:" + l.Addr()[strings.LastIndex(l.Addr(), ":")+1:]); err == nil {
		t.Fatal("a literal that refuses dialed")
	}
}

// TestIPv6Loopback: ListenTCP and DialTCP take an IPv6 literal, zoned
// too: a zone is its interface's name or index, and one that no interface
// has fails the dial.
func TestIPv6Loopback(t *testing.T) {
	l, err := ListenTCP("[::1]:0")
	if err != nil {
		t.Skipf("no ::1 on this host: %v", err)
	}
	defer l.Close()
	if !strings.HasPrefix(l.Addr(), "[::1]:") {
		t.Fatalf("listening at %s", l.Addr())
	}
	port := l.Addr()[strings.LastIndex(l.Addr(), ":"):]
	addrs := []string{l.Addr()}
	ifs, err := net.Interfaces()
	if err != nil {
		t.Fatal(err)
	}
	for _, ifi := range ifs {
		if ifi.Flags&net.FlagLoopback == 0 {
			continue
		}
		addrs = append(addrs, "[::1%"+ifi.Name+"]"+port, "[::1%"+strconv.Itoa(ifi.Index)+"]"+port)
	}
	for _, addr := range addrs {
		c, err := DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c, s)
	}
	if _, err := DialTCP("[::1%no-such-interface]" + port); err == nil {
		t.Fatal("a dial through an unknown zone connected")
	}
}

// roundTrip sends a frame each way, one of them long enough to be vectored,
// and closes both ends.
func roundTrip(t *testing.T, c, s Conn) {
	t.Helper()
	defer c.Close()
	defer s.Close()
	big := protocol.ReportRequest{DeviceID: "d", Update: patterned(3*maxWhole, 5)}
	go func() { _ = c.Send(big) }()
	if msg, err := s.Recv(); err != nil || !bytes.Equal(msg.(protocol.ReportRequest).Update, big.Update) {
		t.Fatalf("server got %T, %v", msg, err)
	}
	s.Release()
	if err := s.Send(protocol.ReportResponse{Accepted: true}); err != nil {
		t.Fatal(err)
	}
	if msg, err := c.Recv(); err != nil || !msg.(protocol.ReportResponse).Accepted {
		t.Fatalf("client got %v, %v", msg, err)
	}
}

// TestConcurrentVectoredSends: long frames from many goroutines never
// interleave, though the socket takes each in pieces — the reader is slower
// than the writers, so most writev(2) calls write part of their frame.
func TestConcurrentVectoredSends(t *testing.T) {
	poison(t)
	client, server := tcpPair(t)
	const senders, per = 4, 8
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := protocol.ReportRequest{DeviceID: "d", Round: int64(s), Update: patterned(256<<10+s, byte(s))}
				if err := client.Send(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for seen := 0; seen < senders*per; seen++ {
		time.Sleep(time.Millisecond)
		msg, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		r, ok := msg.(protocol.ReportRequest)
		if !ok || !bytes.Equal(r.Update, patterned(256<<10+int(r.Round), byte(r.Round))) {
			t.Fatalf("frame %d corrupted under concurrent vectored sends", seen)
		}
	}
	wg.Wait()
}
