//go:build unix

package shard

import (
	"bytes"
	"io"
	"net"
	"syscall"
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// stallProxy forwards one device connection to addr and holds back what the
// server sends until release closes (or the test ends), like a device that
// does not read. Its socket toward the server has a small receive buffer, so
// a multi-MB frame stays in the middle of its write until then. It takes
// the server's first byte off the socket and closes sending, so a test can
// wait for the server's first send to be under way rather than for time to
// pass.
func stallProxy(t *testing.T, addr string, sending chan<- struct{}, release <-chan struct{}) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { l.Close(); close(stop) })
	small := func(_, _ string, c syscall.RawConn) error {
		return c.Control(func(fd uintptr) { _ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096) })
	}
	go func() {
		down, err := l.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := (&net.Dialer{Control: small}).Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(up, down)
		var first [1]byte
		if _, err := io.ReadFull(up, first[:]); err != nil {
			return
		}
		close(sending)
		select {
		case <-release:
			if _, err := down.Write(first[:]); err == nil {
				_, _ = io.Copy(down, up)
			}
		case <-stop:
		}
	}()
	return l.Addr().String()
}

// TestStalledDeviceKeepsItsRoundConfig: a shard serves its devices the
// checkpoint bytes of the RoundConfig frame it holds. A TCP device that
// reads nothing until its round has sealed and the next round's config has
// arrived — a frame of the same size class, read into a pooled buffer —
// still reads its own round's checkpoint intact: its configuration send
// kept a reference to the first frame, so the buffer stayed out of the pool
// (released buffers are poisoned here). Once the device has read it and the
// second round is abandoned, every loan has come back.
func TestStalledDeviceKeepsItsRoundConfig(t *testing.T) {
	transport.PoisonReleasedForTest()
	// 4 MB: within the pools' 4 MiB, and more than the sockets between the
	// shard and a stalled device buffer.
	const dim = 500_000
	h := newHandCoordinator(t)
	before := loansOut()
	sending, release := make(chan struct{}), make(chan struct{})
	first := h.config(1, dim, 1)
	h.send(first)
	waitFor(t, "round 1 to open", func() bool { st, _ := h.sp.Stats(); return st.RoundsOpened == 1 })

	dev, err := transport.DialTCP(stallProxy(t, h.devices.Addr(), sending, release))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Send(protocol.CheckinRequest{DeviceID: "stalled", Population: loanPop, RuntimeVersion: 3}); err != nil {
		t.Fatal(err)
	}
	// The round sends the configuration on its own goroutine after the
	// admission; a finalize that overtook it would answer the device with an
	// abort instead, so the round seals only once the send is under way.
	waitFor(t, "the device's configuration send", func() bool {
		select {
		case <-sending:
			return true
		default:
			return false
		}
	})
	h.send(protocol.RoundFinalize{Population: loanPop, TaskID: first.TaskID, Round: 1})
	if seal, ok := h.next().(protocol.StripeSeal); !ok || seal.Round != 1 || seal.Aborted != 1 {
		t.Fatalf("round 1 sealed as %+v, want its one device aborted", seal)
	}
	h.send(h.config(2, dim, -1))
	waitFor(t, "round 2 to open", func() bool { st, _ := h.sp.Stats(); return st.RoundsOpened == 2 })
	close(release)

	msg, err := dev.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := msg.(protocol.CheckinResponse)
	if !ok || !resp.Accepted {
		t.Fatalf("device got %T %+v, want its configuration", msg, msg)
	}
	if !bytes.Equal(resp.Checkpoint, first.Checkpoint) {
		t.Fatal("the stalled device read a checkpoint other than its round's: its frame went back to the pool under the send")
	}
	dev.Release()
	h.send(protocol.RoundAbort{Population: loanPop, TaskID: first.TaskID, Round: 2, Reason: "test over"})
	// Both frames, the seal's bytes and every lease on the way are back once
	// the shard's Close has waited for its rounds and their goroutines.
	h.close()
	loans(t, before, "once the shard closed")
}
