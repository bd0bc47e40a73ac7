package transport

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/protocol"
)

// The read side of tcpConn: a frame of at most maxWhole bytes arrives in one
// read(2) into a class-0 read-ahead buffer, taken once the socket is
// readable; a leased one keeps that buffer as its lease; bytes read past a
// frame wait for the next Recv in a buffer no lease shares.

// framed is one frame on the wire and the message it must decode to.
type framed struct {
	name  string
	frame []byte
	want  string // the decoded message's printed form
}

// printed is a message's printed form: NaN-safe equality for decoded frames.
func printed(msg interface{}) string { return fmt.Sprintf("%#v", msg) }

// goldenFramed is the protocol package's golden frame for code, with its
// decoding as the reference.
func goldenFramed(t *testing.T, code byte) framed {
	row, _ := protocol.Lookup(code)
	b := goldenFrame(t, row)
	msg, err := protocol.UnmarshalBinary(code, b[hdrLen:])
	if err != nil {
		t.Fatalf("%s golden: %v", row.Name, err)
	}
	return framed{row.Name, b, printed(msg)}
}

// sized is a frame of msg, named for its length.
func sized(msg interface{}) framed {
	code, payload, _ := protocol.MarshalBinary(msg)
	return framed{fmt.Sprintf("%T of %d B", msg, hdrLen+len(payload)), append(frameHeader(code, len(payload)), payload...), printed(msg)}
}

// envelopeFrame is an ActorEnvelope frame (owned: never leased) of exactly
// n bytes, header included.
func envelopeFrame(n int) framed {
	return sized(protocol.ActorEnvelope{Target: "t", Payload: patterned(n-hdrLen-4, 3)})
}

// reportFrame is a ReportRequest frame (leased above 1 KiB) of exactly n
// bytes, header included.
func reportFrame(n int) framed {
	return sized(leaseReport(patterned(n-hdrLen-9, 4)))
}

// writeChunks writes stream to raw in pieces of the given lengths (the last
// piece takes the rest), each its own write, from its own goroutine.
func writeChunks(raw net.Conn, stream []byte, chunks ...int) {
	go func() {
		for _, n := range chunks {
			n = min(max(n, 1), len(stream))
			if _, err := raw.Write(stream[:n]); err != nil {
				return
			}
			stream = stream[n:]
			time.Sleep(50 * time.Microsecond) // let the reader see the piece alone
		}
		_, _ = raw.Write(stream)
	}()
}

// expectFrames receives len(want) messages and checks each against its
// reference before the next Recv can end its lease.
func expectFrames(t *testing.T, server *tcpConn, want []framed) {
	for i, f := range want {
		_ = server.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		msg, err := server.Recv()
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, f.name, err)
		}
		if got := printed(msg); got != f.want {
			t.Fatalf("frame %d (%s) decoded to\n%.300s\nwant\n%.300s", i, f.name, got, f.want)
		}
	}
	server.Release()
}

// TestTCPFraming: every golden frame, and sequences of frames around the
// read-ahead buffer's edges, decode to their references however the bytes
// are cut into writes — with released buffers poisoned, so a message that
// aliased a recycled lease or read-ahead buffer would not decode equal.
func TestTCPFraming(t *testing.T) {
	poison(t)
	var goldens []framed
	for _, code := range tableCodes() {
		goldens = append(goldens, goldenFramed(t, code))
	}
	run := func(t *testing.T, frames []framed, chunks ...int) {
		t.Helper()
		raw, server := rawPair(t)
		var stream []byte
		for _, f := range frames {
			stream = append(stream, f.frame...)
		}
		writeChunks(raw, stream, chunks...)
		expectFrames(t, server, frames)
	}
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			t.Run("whole", func(t *testing.T) { run(t, []framed{g}) })
			t.Run("byte by byte", func(t *testing.T) {
				ones := make([]int, min(len(g.frame), 256)) // the rest in one piece
				for i := range ones {
					ones[i] = 1
				}
				run(t, []framed{g}, ones...)
			})
			for cut := 1; cut <= hdrLen; cut++ {
				t.Run(fmt.Sprintf("split at %d", cut), func(t *testing.T) { run(t, []framed{g}, cut) })
			}
		})
	}
	heartbeat := goldenFramed(t, protocol.CodeHeartbeat)
	envelope := goldenFramed(t, protocol.CodeActorEnvelope)
	seal := goldenFramed(t, protocol.CodeStripeSeal)
	for _, n := range []int{maxWhole - 1, maxWhole, maxWhole + 1} {
		if e, r := envelopeFrame(n), reportFrame(n); len(e.frame) != n || len(r.frame) != n {
			t.Fatalf("boundary frames of %d and %d bytes, want %d", len(e.frame), len(r.frame), n)
		}
	}
	for name, frames := range map[string][]framed{
		"two in one write":   {heartbeat, envelope},
		"three in one write": {heartbeat, envelope, seal},
		"all goldens":        goldens,
		// 8 KiB − 7, − 6 and − 5 of payload: a frame one byte short of the
		// read-ahead buffer, one that fills it, one a byte too long for it.
		"payload 8 KiB - 7": {envelopeFrame(maxWhole - 1), heartbeat, reportFrame(maxWhole - 1), heartbeat},
		"payload 8 KiB - 6": {envelopeFrame(maxWhole), heartbeat, reportFrame(maxWhole), heartbeat},
		"payload 8 KiB - 5": {envelopeFrame(maxWhole + 1), heartbeat, reportFrame(maxWhole + 1), heartbeat},
		// The second frame starts in the first read and ends past the
		// read-ahead buffer: after an owned frame (its bytes move to the
		// front) and after a leased one (they move to a buffer of their own).
		"straddle after owned":         {envelopeFrame(5000), reportFrame(5000), heartbeat},
		"straddle after leased":        {reportFrame(5000), reportFrame(5000), envelopeFrame(3000)},
		"long frame straddles":         {heartbeat, reportFrame(20 << 10), envelopeFrame(20 << 10), heartbeat},
		"leased then long straddling":  {reportFrame(3000), envelopeFrame(leaseSize), heartbeat},
		"control frames back to back":  {reportFrame(2100), reportFrame(2100), reportFrame(2100), reportFrame(2100), heartbeat},
		"header at the buffer's end":   {envelopeFrame(maxWhole - 3), heartbeat},
		"frame ends at the buffer end": {envelopeFrame(maxWhole - hdrLen - 2), heartbeat, reportFrame(3000)},
	} {
		t.Run(name, func(t *testing.T) {
			run(t, frames)
			run(t, frames, 1, 5, 7, maxWhole-1, 3)
		})
	}
}

// FuzzTCPFraming: any sequence of frames, cut into any writes, decodes
// frame by frame to the messages sent.
func FuzzTCPFraming(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{6})
	f.Add([]byte{3, 3, 4, 5}, []byte{1, 1, 1, 1, 200})
	f.Add([]byte{6, 7, 6}, []byte{255, 255, 3})
	f.Add([]byte{8, 2, 9, 1, 0}, []byte{2, 40, 90})
	f.Fuzz(func(t *testing.T, picks, chunks []byte) {
		poison(t)
		pool := []framed{
			goldenFramed(t, protocol.CodeHeartbeat), goldenFramed(t, protocol.CodeActorEnvelope),
			goldenFramed(t, protocol.CodeStripeSeal), goldenFramed(t, protocol.CodeCheckinResponse),
			reportFrame(2100), envelopeFrame(maxWhole), reportFrame(maxWhole + 1), envelopeFrame(5000),
			reportFrame(maxWhole - 1), goldenFramed(t, protocol.CodeReportRequest),
		}
		if len(picks) > 16 {
			picks = picks[:16]
		}
		var frames []framed
		for _, p := range picks {
			frames = append(frames, pool[int(p)%len(pool)])
		}
		var cuts []int
		for _, c := range chunks[:min(len(chunks), 32)] {
			cuts = append(cuts, int(c)*int(c)/8+1) // 1 B to 8 KiB
		}
		raw, server := rawPair(t)
		var stream []byte
		for _, fr := range frames {
			stream = append(stream, fr.frame...)
		}
		writeChunks(raw, stream, cuts...)
		expectFrames(t, server, frames)
	})
}

// TestRecvAllocs: a steady-state Recv of a control-sized leased
// ReportRequest or CheckinResponse allocates what decoding its payload
// allocates and nothing more — no Loan, no buffer, no header — and wrapping
// an accepted socket costs its tcpConn and RawConn, 56 B on 64-bit systems:
// no closure for the reads (72 B with one).
func TestRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops Puts: the bound cannot hold")
	}
	for name, msg := range map[string]interface{}{
		"report":  leaseReport(patterned(2000, 6)),
		"checkin": leaseCheckin(patterned(2000, 7)),
	} {
		t.Run(name, func(t *testing.T) {
			code, payload, _ := protocol.MarshalBinary(msg)
			if !leased(code, len(payload)) || hdrLen+len(payload) > maxWhole {
				t.Fatalf("a %d-byte payload is not a control-sized leased frame", len(payload))
			}
			decode := testing.AllocsPerRun(100, func() { _, _ = protocol.UnmarshalBinary(code, payload) })
			raw, server := rawPair(t)
			frame := append(frameHeader(code, len(payload)), payload...)
			stream := bytes.Repeat(frame, 101) // AllocsPerRun's warm-up and 100 runs
			go func() { _, _ = raw.Write(stream) }()
			var err error
			recv := testing.AllocsPerRun(100, func() { _, err = server.Recv() })
			if err != nil {
				t.Fatal(err)
			}
			if recv != decode {
				t.Fatalf("Recv allocates %v times per frame, decoding alone %v: the transport adds %v", recv, decode, recv-decode)
			}
		})
	}
	_, server := rawPair(t)
	c := server.c
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wrapped = wrapTCP(c)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 56 {
		t.Fatalf("wrapping a socket allocates %d B, want at most 56", got)
	}
}

var wrapped *tcpConn // keeps wrapTCP's result on the heap

// TestDecodeErrorKeepsTheStream: a frame whose payload the codec refuses is
// consumed whole, so the frames read with it in the same read(2) still
// arrive; no lease or read-ahead buffer outlives the last Recv.
func TestDecodeErrorKeepsTheStream(t *testing.T) {
	raw, server := rawPair(t)
	before := loansOut()
	heartbeat := goldenFramed(t, protocol.CodeHeartbeat)
	bad := append(frameHeader(protocol.CodeReportRequest, 2000), make([]byte, 2000)...) // a leased code, all zeros
	bad = append(bad, heartbeat.frame...)
	writeChunks(raw, append(bad, reportFrame(3000).frame...))
	if msg, err := server.Recv(); err == nil {
		t.Fatalf("a zeroed ReportRequest decoded to %T", msg)
	}
	expectFrames(t, server, []framed{heartbeat, reportFrame(3000)})
	if got := loansOut() - before; got != 0 {
		t.Fatalf("%v buffers held after the last frame's Release, want 0", got)
	}
}
