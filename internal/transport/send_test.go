package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/protocol"
)

// The send path of tcpConn: a frame of at most maxWhole bytes is written in
// one piece from a pooled scratch buffer, a longer one as a vectored write
// of its aliased segments, and neither allocates once warm.

// drained returns a tcpConn whose peer reads and discards everything sent.
func drained(t *testing.T) *tcpConn {
	t.Helper()
	raw, conn := rawPair(t)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := raw.Read(buf); err != nil {
				return
			}
		}
	}()
	return conn
}

// readFrame reads one whole frame, header included, from raw.
func readFrame(t *testing.T, raw net.Conn) []byte {
	t.Helper()
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(raw, hdr); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, hdrLen+int(binary.BigEndian.Uint32(hdr))-frameOverhead)
	copy(frame, hdr)
	if _, err := io.ReadFull(raw, frame[hdrLen:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

// wantFrame is msg's frame as the header and protocol.MarshalBinary make it.
func wantFrame(t *testing.T, msg interface{}) []byte {
	t.Helper()
	code, payload, ok := protocol.MarshalBinary(msg)
	if !ok {
		t.Fatalf("%T has no codec", msg)
	}
	return append(frameHeader(code, len(payload)), payload...)
}

// reportOfSize is a ReportRequest whose payload is exactly n bytes.
func reportOfSize(t *testing.T, n int) protocol.ReportRequest {
	t.Helper()
	for k := n - 16; k <= n; k++ {
		if m := leaseReport(make([]byte, k)); protocol.Size(m) == n {
			for i := range m.Update {
				m.Update[i] = byte(i * 7)
			}
			return m
		}
	}
	t.Fatalf("no report of %d payload bytes", n)
	return protocol.ReportRequest{}
}

// TestSendWritesOneFrame: for every code of the wire table (its golden
// message) and for reports whose frames are one byte under, at and one
// byte over maxWhole, Send — plain and pre-framed — writes exactly the
// header and the MarshalBinary payload, in one piece up to maxWhole bytes
// and as aliased segments beyond.
func TestSendWritesOneFrame(t *testing.T) {
	msgs := map[string]interface{}{}
	for _, code := range tableCodes() {
		row, _ := protocol.Lookup(code)
		golden := goldenFrame(t, row)
		msg, err := protocol.UnmarshalBinary(code, golden[hdrLen:])
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		msgs[row.Name] = msg
	}
	for _, n := range []int{maxWhole - 7, maxWhole - 6, maxWhole - 5} {
		msgs["report of "+string(rune('0'+maxWhole-n))+" under"] = reportOfSize(t, n)
	}
	raw, server := rawPair(t)
	for name, msg := range msgs {
		want := wantFrame(t, msg)
		whole, parts, err := frame(msg, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inOne := len(want) <= maxWhole; inOne != (len(parts) == 0) || inOne && !bytes.Equal(whole, want) {
			t.Fatalf("%s: a %d-byte frame framed in %d segments, whole %v; want it whole iff at most %d bytes", name, len(want), len(parts), inOne, maxWhole)
		}
		for _, m := range []interface{}{msg, Encode(msg)} {
			go func() {
				if err := server.Send(m); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}()
			if got := readFrame(t, raw); !bytes.Equal(got, want) {
				t.Fatalf("%s (%T): Send wrote %d bytes unlike the header and MarshalBinary's %d", name, m, len(got), len(want))
			}
		}
	}
}
