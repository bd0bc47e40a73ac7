package transport

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
)

// tableCodes lists the type codes of the protocol's wire table, in order.
func tableCodes() []byte {
	var codes []byte
	for c := 0; c < 256; c++ {
		if _, ok := protocol.Lookup(byte(c)); ok {
			codes = append(codes, byte(c))
		}
	}
	return codes
}

// goldenFrame reads the protocol package's golden frame for row: length,
// version, code and payload of a fully populated message.
func goldenFrame(t *testing.T, row protocol.Row) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "protocol", "testdata", row.Name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTCPFrameCeilings: for every row of the wire table, a header claiming
// one byte more than the row's ceiling is refused from its 6 bytes, with no
// payload read or allocated; a frame of exactly the ceiling is read in full
// (where a test can afford to send one); and a well-formed CheckinRequest
// above its 64 KiB ceiling is refused while one at the ceiling decodes.
func TestTCPFrameCeilings(t *testing.T) {
	for _, code := range tableCodes() {
		row, _ := protocol.Lookup(code)
		t.Run(row.Name, func(t *testing.T) {
			raw, server := rawPair(t)
			// A Recv that reads past the header waits for bytes that never
			// come; the deadline turns that into a failure instead of a hang.
			_ = server.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := raw.Write(frameHeader(code, row.Ceiling+1-frameOverhead)); err != nil {
				t.Fatal(err)
			}
			_, err := server.Recv()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "exceeds its ceiling") {
				t.Fatalf("a %d-byte %s frame: Recv = %v, want a refusal at the header", row.Ceiling+1, row.Name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
				t.Fatalf("refusing the header allocated %d bytes", grew)
			}
			if row.Ceiling > 1<<20 {
				return
			}
			// Exactly at the ceiling: the golden payload padded with zeros is
			// read whole and then refused by the codec for its trailing bytes,
			// and the golden frame behind it arrives intact.
			raw, server = rawPair(t)
			golden := goldenFrame(t, row)
			padded := append(frameHeader(code, row.Ceiling-frameOverhead), golden[4+frameOverhead:]...)
			padded = append(padded, make([]byte, 4+row.Ceiling-len(padded))...)
			sendAsyncRaw(raw, padded, golden)
			if _, err := server.Recv(); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
				t.Fatalf("a %s frame at its ceiling: Recv = %v, want the codec's trailing-bytes error", row.Name, err)
			}
			if msg, err := server.Recv(); err != nil {
				t.Fatalf("the frame after one at the ceiling: %T, %v", msg, err)
			}
		})
	}

	// The token's uvarint length takes 3 bytes at this size, 1 when empty.
	at := protocol.CheckinRequest{DeviceID: "d", Population: "p"}
	_, payload, _ := protocol.MarshalBinary(at)
	at.AttestationToken = make([]byte, 64<<10-frameOverhead-len(payload)-2)
	client, server := tcpPair(t)
	for _, tc := range []struct {
		msg  protocol.CheckinRequest
		want bool
	}{{at, true}, {protocol.CheckinRequest{DeviceID: "d", AttestationToken: make([]byte, 1<<20)}, false}} {
		err := client.Send(tc.msg)
		if tc.want != (err == nil) {
			t.Fatalf("Send of a %d-byte token: %v", len(tc.msg.AttestationToken), err)
		}
	}
	if msg, err := server.Recv(); err != nil || len(msg.(protocol.CheckinRequest).AttestationToken) != len(at.AttestationToken) {
		t.Fatalf("a CheckinRequest at its ceiling: %v", err)
	}
	raw, server2 := rawPair(t)
	_, big, _ := protocol.MarshalBinary(protocol.CheckinRequest{DeviceID: "d", AttestationToken: make([]byte, 1<<20)})
	sendAsyncRaw(raw, append(frameHeader(protocol.CodeCheckinRequest, len(big)), big...))
	if _, err := server2.Recv(); err == nil || !strings.Contains(err.Error(), "exceeds its ceiling") {
		t.Fatalf("a well-formed 1 MiB CheckinRequest: Recv = %v, want a refusal at the header", err)
	}
}

// TestTCPGoldenFrames: every golden frame of the protocol package is what
// Recv decodes and Send writes back, byte for byte — the framing is pinned
// along with the payloads.
func TestTCPGoldenFrames(t *testing.T) {
	for _, code := range tableCodes() {
		row, _ := protocol.Lookup(code)
		golden := goldenFrame(t, row)
		raw, server := rawPair(t)
		sendAsyncRaw(raw, golden)
		msg, err := server.Recv()
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		if err := server.Send(msg); err != nil {
			t.Fatal(err)
		}
		echo := make([]byte, len(golden))
		_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(raw, echo); err != nil || !bytes.Equal(echo, golden) {
			t.Fatalf("%s: Send wrote %x, %v; want the golden %x", row.Name, echo, err, golden)
		}
	}
}

// sendAsyncRaw writes frames to a raw socket from its own goroutine: a frame
// larger than the socket buffers completes only while the peer reads, and a
// peer that refuses one stops reading (the write then fails, unreported).
func sendAsyncRaw(raw net.Conn, frames ...[]byte) {
	go func() {
		for _, f := range frames {
			if _, err := raw.Write(f); err != nil {
				return
			}
		}
	}()
}
