package transport

import (
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send("hello"); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg != "hello" {
		t.Fatalf("got %v", msg)
	}
	// And the other direction.
	if err := b.Send(42); err != nil {
		t.Fatal(err)
	}
	if msg, _ := a.Recv(); msg != 42 {
		t.Fatalf("got %v", msg)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv after peer close should error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestPipeDrainBeforeCloseError(t *testing.T) {
	a, b := Pipe()
	_ = a.Send("x")
	a.Close()
	msg, err := b.Recv()
	if err != nil || msg != "x" {
		t.Fatalf("buffered message lost: %v %v", msg, err)
	}
}

func TestSendToClosedFails(t *testing.T) {
	a, b := Pipe()
	b.Close()
	if err := a.Send("x"); err == nil {
		t.Fatal("send to closed peer should fail")
	}
	a.Close()
	if err := a.Send("y"); err == nil {
		t.Fatal("send on closed conn should fail")
	}
}

func TestMemNetworkDialListen(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("fl-server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() != "fl-server" {
		t.Fatalf("addr = %q", l.Addr())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		msg, err := c.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		_ = c.Send("echo:" + msg.(string))
	}()

	c, err := n.Dial("fl-server")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.Send("ping")
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg != "echo:ping" {
		t.Fatalf("got %v", msg)
	}
	wg.Wait()
}

func TestMemNetworkErrors(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Dial("nowhere"); err == nil {
		t.Fatal("dial to missing listener should fail")
	}
	l, _ := n.Listen("a")
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("duplicate listen should fail")
	}
	l.Close()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal("address should be free after close")
	}
	if _, err := n.Dial("a"); err != nil {
		t.Fatal("dial to reopened listener should work")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := NewMemNetwork()
	l, _ := n.Listen("x")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept should fail after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock")
	}
}

func TestTCPTransportProtocolMessages(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		msg, err := c.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		req, ok := msg.(protocol.CheckinRequest)
		if !ok {
			t.Errorf("got %T", msg)
			return
		}
		_ = c.Send(protocol.CheckinResponse{Accepted: true, TaskID: "t", Round: 7, Plan: []byte{1, 2}})
		_ = req
	}()

	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.Send(protocol.CheckinRequest{DeviceID: "d1", Population: "pop", RuntimeVersion: 3})
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := msg.(protocol.CheckinResponse)
	if !ok || !resp.Accepted || resp.Round != 7 || len(resp.Plan) != 2 {
		t.Fatalf("got %+v", msg)
	}
	wg.Wait()
}

// tcpPair returns a connected client/server conn over loopback.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestTCPBinaryCodecEveryMessage pushes each of the five protocol messages
// through the framed binary codec over a real socket and checks exact
// field equality.
func TestTCPBinaryCodecEveryMessage(t *testing.T) {
	client, server := tcpPair(t)
	msgs := []interface{}{
		protocol.CheckinRequest{DeviceID: "d1", Population: "pop", RuntimeVersion: 3, AttestationToken: []byte{7, 8}},
		protocol.CheckinResponse{Accepted: true, TaskID: "t", Round: 9, Plan: []byte{1}, Checkpoint: []byte{2, 3}, ReportDeadline: time.Minute},
		protocol.ReportRequest{DeviceID: "d1", TaskID: "t", Round: 9, Update: []byte{4, 5, 6}, Metrics: map[string]float64{"train_loss": 0.5}},
		protocol.ReportResponse{Accepted: false, Reason: "window closed", RetryAfter: time.Hour},
		protocol.Abort{TaskID: "t", Round: 9, Reason: "enough devices"},
	}
	for _, in := range msgs {
		if err := client.Send(in); err != nil {
			t.Fatalf("send %T: %v", in, err)
		}
		out, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed %T:\n in  %+v\n out %+v", in, in, out)
		}
	}
}

// TestTCPMultiMegabytePayloads moves a multi-MB checkpoint down and a
// multi-MB update up, the round's two dominant transfers.
func TestTCPMultiMegabytePayloads(t *testing.T) {
	client, server := tcpPair(t)
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 131)
	}
	go func() {
		_ = server.Send(protocol.CheckinResponse{Accepted: true, TaskID: "t", Plan: big[:1<<20], Checkpoint: big})
	}()
	msg, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp := msg.(protocol.CheckinResponse)
	if !reflect.DeepEqual(resp.Checkpoint, big) || len(resp.Plan) != 1<<20 {
		t.Fatal("multi-MB checkin payload corrupted in flight")
	}
	go func() {
		_ = client.Send(protocol.ReportRequest{DeviceID: "d", Update: big})
	}()
	msg, err = server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rep := msg.(protocol.ReportRequest); !reflect.DeepEqual(rep.Update, big) {
		t.Fatal("multi-MB update corrupted in flight")
	}
}

// TestTCPSendWithoutCodecFails: a type outside the binary codec is a Send
// error naming it, and the stream stays usable for real messages.
func TestTCPSendWithoutCodecFails(t *testing.T) {
	type debugStats struct{ Name string }
	client, server := tcpPair(t)
	err := client.Send(debugStats{Name: "x"})
	if err == nil || !strings.Contains(err.Error(), "debugStats") {
		t.Fatalf("Send of a codec-less type: %v", err)
	}
	if err := client.Send(Encode(debugStats{Name: "x"})); err == nil {
		t.Fatal("pre-framing a codec-less type succeeded")
	}
	if err := client.Send(protocol.Abort{TaskID: "t", Round: 3, Reason: "r"}); err != nil {
		t.Fatal(err)
	}
	if msg, err := server.Recv(); err != nil || msg.(protocol.Abort).Round != 3 {
		t.Fatalf("frame after a rejected Send: %+v, %v", msg, err)
	}
}

// TestTCPRejectsRetiredFramesByHeader: a frame from a wire-version-1 or -2
// build (version 2 wrote ints fixed-width) and a frame with the reserved
// code 0 — each claiming a 1 GiB payload — are rejected by name from the 6
// header bytes, before any payload memory is committed or awaited.
func TestTCPRejectsRetiredFramesByHeader(t *testing.T) {
	for want, hdr := range map[string][]byte{
		"unsupported wire version 1": {0x40, 0, 0, 0, 1, byte(protocol.CodeAbort)},
		"unsupported wire version 2": {0x40, 0, 0, 0, 2, byte(protocol.CodeAbort)},
		"unknown type code 0":        {0x40, 0, 0, 0, wireVersion, 0},
	} {
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(hdr); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = c.Recv() // the peer stays connected and silent: only the header can decide
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Recv = %v, want %q", err, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: rejecting the header allocated %d bytes", want, grew)
		}
		raw.Close()
		c.Close()
		l.Close()
	}
}

// TestEncodedFanout pre-frames one CheckinResponse and sends it over both
// transports: TCP peers must decode the identical message, and the
// in-memory transport must deliver the original value. Concurrent sends of
// one Encoded over many conns are the fan-out pool's pattern (-race covers
// the immutability claim).
func TestEncodedFanout(t *testing.T) {
	in := protocol.CheckinResponse{Accepted: true, TaskID: "t", Round: 4,
		Plan: []byte{1, 2}, Checkpoint: make([]byte, 1<<16), ReportDeadline: time.Minute}
	enc := Encode(in)
	if !reflect.DeepEqual(enc.Message(), in) {
		t.Fatal("Encoded lost the original message")
	}

	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send(enc); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("mem transport delivered %T %+v", got, got)
	}

	const conns = 4
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		client, server := tcpPair(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := server.Send(enc); err != nil {
				t.Error(err)
			}
		}()
		got, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("tcp conn %d decoded %+v", i, got)
		}
	}
	wg.Wait()
}

// TestTCPConcurrentSenders hammers one conn from many goroutines: frames
// must never interleave (every message decodes cleanly).
func TestTCPConcurrentSenders(t *testing.T) {
	client, server := tcpPair(t)
	const senders, per = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := client.Send(protocol.ReportRequest{
					DeviceID: "d", Round: int64(s*per + i),
					Update: make([]byte, 1024+s),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	seen := 0
	for seen < senders*per {
		msg, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(protocol.ReportRequest); !ok {
			t.Fatalf("frame corrupted under concurrent sends: %T", msg)
		}
		seen++
	}
	wg.Wait()
}

// TestTCPHostileLengthPrefix: a bare header commits at most exactAlloc
// (4 MiB) of receiver memory whatever length it promises — on the owned
// path, on the two leased type codes above the lease cap (1 GiB), and on a
// leased frame right at the cap, where the one pooled buffer taken goes back
// to the pool when the read fails.
func TestTCPHostileLengthPrefix(t *testing.T) {
	for _, c := range []struct {
		name string
		code byte
		size int
	}{
		{"owned 1 GiB", protocol.CodeRoundConfig, maxFrame - frameOverhead},
		{"checkin response 1 GiB", protocol.CodeCheckinResponse, maxFrame - frameOverhead},
		{"report request 1 GiB", protocol.CodeReportRequest, maxFrame - frameOverhead},
		{"report request at the lease cap", protocol.CodeReportRequest, exactAlloc},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw, server := rawPair(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			// A valid header promising c.size bytes — then hang up.
			if _, err := raw.Write(frameHeader(c.code, c.size)); err != nil {
				t.Fatal(err)
			}
			raw.Close()
			msg, err := server.Recv()
			runtime.ReadMemStats(&after)
			if err == nil || msg != nil {
				t.Fatalf("Recv accepted a truncated %d-byte frame: %T", c.size, msg)
			}
			if spent := after.TotalAlloc - before.TotalAlloc; spent > exactAlloc+256<<10 {
				t.Fatalf("a bare header committed %d bytes, want <= %d", spent, exactAlloc)
			}
			if server.lease != nil {
				t.Fatal("the failed Recv kept a leased buffer")
			}
		})
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	l, _ := ListenTCP("127.0.0.1:0")
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv should fail after peer close")
	}
}
