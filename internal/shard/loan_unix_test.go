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
// a multi-MB frame stays in the middle of its write until then.
func stallProxy(t *testing.T, addr string, release <-chan struct{}) string {
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
		select {
		case <-release:
			_, _ = io.Copy(down, up)
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
	release := make(chan struct{})
	first := h.config(1, dim, 1)
	h.send(first)
	waitFor(t, "round 1 to open", func() bool { st, _ := h.sp.Stats(); return st.RoundsOpened == 1 })

	dev, err := transport.DialTCP(stallProxy(t, h.devices.Addr(), release))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Send(protocol.CheckinRequest{DeviceID: "stalled", Population: loanPop, RuntimeVersion: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the device's admission", func() bool { st, _ := h.sp.Stats(); return st.Selector.Accepted == 1 })
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
	// Both frames, the seal's bytes and every lease on the way come back.
	waitFor(t, "every loan to come back", func() bool { return loansOut() == before })
}
