package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/protocol"
	"repro/internal/tensor"
)

// The lease contract of tcpConn.Recv: the bytes of a large CheckinResponse
// or ReportRequest sit in a pooled buffer that belongs to the reader until
// its next Recv or its Release, and to nobody else in between.

// leaseSize is the payload the canonical round moves per device: 65536
// float64 parameters.
const leaseSize = 512 << 10

// maxFrame is the bulk codes' frame ceiling in the protocol's wire table.
const maxFrame = 1 << 30

func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131) ^ salt
	}
	return b
}

func leaseReport(update []byte) protocol.ReportRequest {
	return protocol.ReportRequest{DeviceID: "d", TaskID: "t", Round: 1, Update: update}
}

func leaseCheckin(ckpt []byte) protocol.CheckinResponse {
	return protocol.CheckinResponse{Accepted: true, TaskID: "t", Round: 1, Plan: []byte{1, 2, 3}, Checkpoint: ckpt}
}

// sendAsync sends from its own goroutine: a frame larger than the socket
// buffers completes only while the peer is reading. What it returns closes
// once every Send has returned.
func sendAsync(t *testing.T, c Conn, msgs ...interface{}) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, m := range msgs {
			if err := c.Send(m); err != nil {
				t.Errorf("send %T: %v", m, err)
				return
			}
		}
	}()
	return done
}

// recvLarge receives one message and returns its O(dim) byte field.
func recvLarge(t *testing.T, c Conn) []byte {
	t.Helper()
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	switch m := msg.(type) {
	case protocol.ReportRequest:
		return m.Update
	case protocol.CheckinResponse:
		return m.Checkpoint
	case protocol.RoundConfig:
		return m.Checkpoint
	case protocol.ActorEnvelope:
		return m.Payload
	}
	t.Fatalf("unexpected %T", msg)
	return nil
}

// poison switches the use-after-release overwrite on for one test.
func poison(t *testing.T) {
	poisonReleased.Store(true)
	t.Cleanup(func() { poisonReleased.Store(false) })
}

// rawPair returns a raw socket and the tcpConn reading its other end, for
// tests that put damaged frames on the wire.
func rawPair(t *testing.T) (net.Conn, *tcpConn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close(); server.Close() })
	return raw, server.(*tcpConn)
}

// frameHeader is the 6-byte header of a frame whose payload is n bytes.
func frameHeader(code byte, n int) []byte {
	hdr := make([]byte, 4+frameOverhead)
	binary.BigEndian.PutUint32(hdr, uint32(frameOverhead+n))
	hdr[4], hdr[5] = wireVersion, code
	return hdr
}

func leasesTaken() int64 { return obsRxBufReused.Value() + obsRxBufAlloc.Value() }

func TestLeaseSelectsByCodeAndLength(t *testing.T) {
	leasedCodes := map[byte]bool{protocol.CodeCheckinResponse: true, protocol.CodeReportRequest: true, protocol.CodeStripeSeal: true,
		protocol.CodeRoundConfig: true}
	for code := range leasedCodes {
		for n, want := range map[int]bool{0: false, 1 << 10: false, 1<<10 + 1: true, 4 << 10: true, 4<<10 + 1: true,
			leaseSize: true, exactAlloc: true, exactAlloc + 1: false, maxFrame - frameOverhead: false} {
			if leased(code, n) != want {
				t.Errorf("leased(%d, %d) = %v, want %v", code, n, !want, want)
			}
		}
	}
	for code := byte(0); code < 32; code++ {
		if !leasedCodes[code] && leased(code, leaseSize) {
			t.Errorf("type code %d leases its receive buffer", code)
		}
	}
	for n, want := range map[int]int{1<<10 + 1: 0, 4 << 10: 0, 4<<10 + 1: 0, 8 << 10: 0, 8<<10 + 1: 1, 10 << 10: 1,
		10<<10 + 1: 2, 14<<10 + 1: 4, leaseSize: 24, leaseSize + 64: 25, 3 << 20: 34, exactAlloc: len(rxStock) - 1} {
		if got := rxClass(n); got != want {
			t.Errorf("rxClass(%d) = %d, want %d", n, got, want)
		}
	}
	for j := range rxStock {
		if size := rxClassSize(j); rxClass(size) != j || j > 0 && rxClass(rxClassSize(j-1)+1) != j {
			t.Errorf("class %d of %d bytes is not the smallest class holding them", j, size)
		}
	}
	if rxClassSize(len(rxStock)-1) != exactAlloc {
		t.Errorf("the largest class holds %d bytes, want %d", rxClassSize(len(rxStock)-1), exactAlloc)
	}
}

// TestLeaseFitsModelFrames: a 65 536-parameter float64 update, the canonical
// round's, is a 512 KiB checkpoint plus headers and leases a 640 KiB
// buffer, not the 1 MiB a power-of-two class would pin.
func TestLeaseFitsModelFrames(t *testing.T) {
	ck, err := (&checkpoint.Checkpoint{TaskName: "bench/round", Round: 1, Weight: 4, Params: make(tensor.Vector, 1<<16)}).
		Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	client, server := tcpPair(t)
	sendAsync(t, client, protocol.ReportRequest{DeviceID: "stub-100", TaskID: "bench/round", Round: 1, Update: ck,
		Metrics: map[string]float64{"train_loss": 0.5}})
	if got := recvLarge(t, server); len(got) != len(ck) {
		t.Fatalf("update of %d bytes, want %d", len(got), len(ck))
	}
	if size := cap(server.(*tcpConn).lease.Bytes()); size > 640<<10 {
		t.Fatalf("a %d-byte update leased %d bytes, want at most 640 KiB", len(ck), size)
	}
}

// TestLeaseReleasedBufferIsReused: a released 512 KB buffer is the one the
// next large Recv returns, for both leased messages, and the pool counters
// say so.
func TestLeaseReleasedBufferIsReused(t *testing.T) {
	const frames = 16
	payload := patterned(leaseSize, 1)
	for name, msg := range map[string]interface{}{"report": leaseReport(payload), "checkin": leaseCheckin(payload)} {
		t.Run(name, func(t *testing.T) {
			poison(t)
			client, server := tcpPair(t)
			reusedBefore, takenBefore := obsRxBufReused.Value(), leasesTaken()
			var batch []interface{}
			for i := 0; i < frames; i++ {
				batch = append(batch, msg)
			}
			sendAsync(t, client, batch...)
			same := 0
			var prev *byte
			for i := 0; i < frames; i++ {
				got := recvLarge(t, server)
				if !bytes.Equal(got, payload) {
					t.Fatalf("frame %d corrupted in a recycled buffer", i)
				}
				if &got[0] == prev {
					same++
				}
				prev = &got[0]
				server.Release()
				server.Release() // a second release is a no-op, not a double Put
			}
			// A Put can miss the next Get (the goroutine changed processor,
			// or the race detector's pool dropped it), so reuse is asserted
			// as the common case, not as every case.
			want := frames / 2
			if raceEnabled {
				want = 1
			}
			if same < want {
				t.Fatalf("%d of %d frames landed in the buffer just released, want >= %d", same, frames-1, want)
			}
			if got := leasesTaken() - takenBefore; got != frames {
				t.Fatalf("pool counters saw %d leased frames, want %d", got, frames)
			}
			if got := obsRxBufReused.Value() - reusedBefore; got < int64(same) {
				t.Fatalf("fl_net_rx_buf_reused_total moved by %d, below the %d reuses observed", got, same)
			}
		})
	}
}

// TestLeaseBytesSurviveUntilNextRecv: with no Release, the bytes stay valid
// through any amount of traffic on other connections, and the reader's next
// Recv is what ends the lease.
func TestLeaseBytesSurviveUntilNextRecv(t *testing.T) {
	poison(t)
	client, server := tcpPair(t)
	other, otherServer := tcpPair(t)
	mine, theirs := patterned(leaseSize, 2), patterned(leaseSize, 3)

	sendAsync(t, client, leaseReport(mine), protocol.Abort{TaskID: "t"})
	held := recvLarge(t, server)
	for i := 0; i < 4; i++ {
		sendAsync(t, other, leaseReport(theirs))
		got := recvLarge(t, otherServer)
		if &got[0] == &held[0] {
			t.Fatal("a held lease was handed to another connection")
		}
		otherServer.Release()
	}
	if !bytes.Equal(held, mine) {
		t.Fatal("leased bytes changed while the reader still held them")
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if held[0] != 0xDB || held[len(held)-1] != 0xDB {
		t.Fatal("the next Recv did not end the lease")
	}
}

// TestLeaseCloseNeverRecycles: Close comes from actor goroutines while the
// reader may be folding, so it must leave the lease alone — both while a
// consumer reads the bytes and while Recv is blocked mid-frame (where the
// reader itself gives the buffer back once the read fails).
func TestLeaseCloseNeverRecycles(t *testing.T) {
	poison(t)
	t.Run("consumer reading", func(t *testing.T) {
		client, server := tcpPair(t)
		mine, theirs := patterned(leaseSize, 4), patterned(leaseSize, 5)
		sendAsync(t, client, leaseReport(mine))
		held := recvLarge(t, server)
		closed := make(chan struct{})
		go func() {
			server.Close()
			close(closed)
		}()
		for i := 0; i < 8; i++ {
			if !bytes.Equal(held, mine) {
				t.Fatal("leased bytes changed under a concurrent Close")
			}
		}
		<-closed
		if server.(*tcpConn).lease == nil {
			t.Fatal("Close ended the reader's lease")
		}
		other, otherServer := tcpPair(t)
		for i := 0; i < 4; i++ {
			sendAsync(t, other, leaseReport(theirs))
			if got := recvLarge(t, otherServer); &got[0] == &held[0] {
				t.Fatal("the buffer of a closed connection was recycled under its reader")
			}
			otherServer.Release()
		}
		if !bytes.Equal(held, mine) {
			t.Fatal("leased bytes changed after Close")
		}
	})
	t.Run("recv blocked mid-frame", func(t *testing.T) {
		raw, server := rawPair(t)
		before := leasesTaken()
		recvErr := make(chan error, 1)
		go func() {
			msg, err := server.Recv()
			if msg != nil {
				t.Errorf("a torn frame delivered %T", msg)
			}
			recvErr <- err
		}()
		if _, err := raw.Write(append(frameHeader(protocol.CodeReportRequest, leaseSize), make([]byte, 1000)...)); err != nil {
			t.Fatal(err)
		}
		// The reader takes its buffer once the header is in; from then on it
		// is blocked on the rest of the payload.
		for deadline := time.Now().Add(10 * time.Second); leasesTaken() == before; {
			if time.Now().After(deadline) {
				t.Fatal("reader never took a buffer")
			}
			time.Sleep(time.Millisecond)
		}
		server.Close()
		if err := <-recvErr; err == nil {
			t.Fatal("Recv succeeded on a closed connection")
		}
		if server.lease != nil {
			t.Fatal("the failed Recv kept its buffer")
		}
	})
}

// TestLeaseReadErrorReturnsBuffer: a peer that hangs up mid-frame costs
// nothing — no message is delivered and the buffer is back in its class's
// stock.
func TestLeaseReadErrorReturnsBuffer(t *testing.T) {
	// A 3 MiB frame has the 3 MiB class to itself in this package.
	const size = 3 << 20
	j := rxClass(size)
	for takeLoan(j) != nil { // empty the class's stock
	}
	raw, server := rawPair(t)
	if _, err := raw.Write(append(frameHeader(protocol.CodeCheckinResponse, size), make([]byte, 4096)...)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if msg, err := server.Recv(); err == nil || msg != nil {
		t.Fatalf("torn frame: Recv = %T, %v", msg, err)
	}
	if server.lease != nil {
		t.Fatal("the failed Recv kept its buffer")
	}
	if takeLoan(j) == nil {
		t.Fatal("a read error did not return the buffer to its stock")
	}
}

// TestStockFollowsDemand: a class keeps the buffers of its largest burst of
// loans out at once, and two windows of one loan at a time later only the
// one its use needs.
func TestStockFollowsDemand(t *testing.T) {
	j := rxClass(15 << 10) // no other test's frames
	s := &rxStock[j]
	free := func() int { s.Lock(); defer s.Unlock(); return len(s.free) }
	for takeLoan(j) != nil { // empty the class's stock
	}
	burst := make([]*Loan, 8)
	for i := range burst {
		burst[i] = NewLoan(rxClassSize(j))
	}
	for _, l := range burst {
		l.Release()
	}
	if n := free(); n != len(burst) {
		t.Fatalf("after a burst of %d loans the class keeps %d buffers", len(burst), n)
	}
	for i := 0; i < 2*stockWindow; i++ {
		NewLoan(rxClassSize(j)).Release()
	}
	if n := free(); n != 1 {
		t.Fatalf("two windows of one loan at a time later the class keeps %d buffers, want 1", n)
	}
}

// TestLeaseOwnedFrames: frames above the 4 MiB cap, small frames and every
// peer-link message whose row is owned come back in buffers of their own —
// no lease, and the bytes outlive the next Recv (peer links hand them to
// actor mailboxes).
func TestLeaseOwnedFrames(t *testing.T) {
	poison(t)
	huge, small, payload := patterned(5<<20, 6), patterned(1<<9, 7), patterned(leaseSize, 8)
	for name, msg := range map[string]interface{}{
		"report above the cap": leaseReport(huge),
		"control-sized report": leaseReport(small),
		"peer-link envelope":   protocol.ActorEnvelope{Target: "sink", Payload: payload},
	} {
		t.Run(name, func(t *testing.T) {
			client, server := tcpPair(t)
			before := leasesTaken()
			sendAsync(t, client, msg, protocol.Abort{TaskID: "t"})
			got := recvLarge(t, server)
			want := append([]byte(nil), got...)
			if server.(*tcpConn).lease != nil || leasesTaken() != before {
				t.Fatal("frame was read into a leased buffer")
			}
			server.Release()
			if _, err := server.Recv(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("an owned buffer changed after Release and the next Recv")
			}
		})
	}
}

// TestLeaseHeldFrameOutlivesRecv: a RoundConfig is leased like the device
// link's frames, and a reader that Holds it keeps its bytes through the next
// Recv and Release until the loan's last Release, which poisons them. Hold
// takes the lease: a second Hold finds none.
func TestLeaseHeldFrameOutlivesRecv(t *testing.T) {
	poison(t)
	client, server := tcpPair(t)
	mine := patterned(leaseSize, 10)
	before := loansOut() // the sender's scratch counts until its Send returns
	sent := sendAsync(t, client, protocol.RoundConfig{Population: "p", TaskID: "t", Round: 1, Checkpoint: mine}, leaseReport(patterned(leaseSize, 11)))
	held := recvLarge(t, server)
	loan := server.Hold()
	if loan == nil || server.Hold() != nil {
		t.Fatal("Hold did not take the config's lease, once")
	}
	loan.Acquire() // a device send's reference
	server.Release()
	if next := recvLarge(t, server); &next[0] == &held[0] {
		t.Fatal("the next Recv reused a held buffer")
	}
	server.Release()
	loan.Release()
	if !bytes.Equal(held, mine) {
		t.Fatal("held bytes changed before the loan's last Release")
	}
	loan.Release()
	if held[0] != 0xDB || held[len(held)-1] != 0xDB {
		t.Fatal("the loan's last Release did not return the buffer")
	}
	<-sent
	if got := loansOut() - before; got != 0 {
		t.Fatalf("%v loans out after every Release, want 0", got)
	}
}

// TestLeaseRecvAllocs is the allocation regression gate: steady-state Recv
// of a 512 KB ReportRequest or CheckinResponse allocates a few hundred bytes
// of message metadata, not a payload buffer. A per-frame make would read
// 512 KB/op here.
func TestLeaseRecvAllocs(t *testing.T) {
	payload := patterned(leaseSize, 9)
	for name, msg := range map[string]interface{}{"report": leaseReport(payload), "checkin": leaseCheckin(payload)} {
		t.Run(name, func(t *testing.T) {
			client, server := tcpPair(t)
			frame := Encode(msg)
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				n, sent := b.N, make(chan struct{})
				go func() {
					defer close(sent)
					for i := 0; i < n; i++ {
						if err := client.Send(frame); err != nil {
							return
						}
					}
				}()
				for i := 0; i < n; i++ {
					if _, err := server.Recv(); err != nil {
						b.Fatal(err)
					}
				}
				<-sent
			})
			t.Logf("%s: %d B/op, %d allocs/op over %d frames", name, res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
			if raceEnabled {
				return // the race detector's pool drops Puts: the bound cannot hold
			}
			if res.AllocedBytesPerOp() > 4<<10 {
				t.Fatalf("Recv of a 512 KB %s allocates %d B/op, want <= 4 KiB", name, res.AllocedBytesPerOp())
			}
		})
	}
}
