// Package secagg implements the four-round Secure Aggregation protocol of
// Bonawitz et al. (CCS 2017) as deployed in the FL system (Sec. 6): the
// server learns only the sum of device update vectors, never an individual
// update, and the protocol tolerates devices dropping out between rounds.
//
// Protocol sketch (server mediates everything):
//
//	Round 0  AdvertiseKeys   — each device sends two X25519 public keys:
//	                           cPK (share encryption) and sPK (masking).
//	Round 1  ShareKeys       — each device Shamir-shares its masking secret
//	                           key and a personal mask seed b_u, encrypting
//	                           the shares pairwise (AES-GCM under ECDH keys);
//	                           its own shares stay on the device.
//	                           (Rounds 0–1 are the paper's "Prepare" phase.)
//	Round 2  MaskedInput     — devices upload x_u + PRG(b_u)
//	                           + Σ_{v>u} PRG(s_uv) − Σ_{v<u} PRG(s_uv),
//	                           where s_uv is the pairwise ECDH secret.
//	                           (The paper's "Commit" phase.)
//	Round 3  Unmask          — survivors reveal shares: b_u shares for
//	                           surviving u, masking-key shares for dropped u.
//	                           The server reconstructs and removes the masks.
//	                           (The paper's "Finalization" phase.)
//
// Updates are real vectors; they are carried in GF(2^61−1) via fixed-point
// encoding (Encode/Decode). All masks cancel exactly in the field.
package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"math"
	"sync"

	"repro/internal/field"
)

// Config describes one Secure Aggregation instance. The FL task defines the
// group size (the parameter k of Sec. 6); the aggregator runs one instance
// per group of at least that size.
type Config struct {
	// N is the number of participants in this instance.
	N int
	// T is the reconstruction threshold: the protocol completes iff at
	// least T devices survive to the finalization round, and fewer than T
	// colluding parties learn nothing.
	T int
	// VectorLen is the length of each device's input vector.
	VectorLen int
}

// phase is where one instance stands, on either side of it. Each protocol
// step checks it first and moves it forward only on success, so a step
// called early, late or twice is refused before it touches any state.
type phase uint8

const (
	advertising phase = iota // keys advertised; the roster U1 not yet fixed
	sharing                  // shares dealt and relayed; the mask set not yet fixed
	// A client steps through the share round in three: sharing, then
	// dealt once its shares are out, then received once the server's
	// relay is in. The server stays in sharing throughout.
	dealt
	received
	masking   // masked inputs sent; the survivor set U2 not yet fixed
	unmasking // unmask responses gathered; the sum not yet taken
	done
)

var phaseNames = [...]string{"advertise", "share", "share (dealt)", "share (received)", "mask", "unmask", "done"}

// expect refuses step unless the instance is in phase want.
func (p phase) expect(want phase, step string) error {
	if p != want {
		return fmt.Errorf("secagg: %s in phase %s, legal only in phase %s", step, phaseNames[p], phaseNames[want])
	}
	return nil
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("secagg: need at least 2 participants, got %d", c.N)
	}
	if c.T < 1 || c.T > c.N {
		return fmt.Errorf("secagg: threshold %d outside [1,%d]", c.T, c.N)
	}
	if c.VectorLen <= 0 {
		return fmt.Errorf("secagg: non-positive vector length %d", c.VectorLen)
	}
	return nil
}

// GroupSpans partitions n items (indexes 0..n-1) into contiguous
// aggregation groups of at least groupSize by folding the remainder into
// the last group, so groups hold groupSize..2·groupSize−1 items and no
// group falls below groupSize — the "no secure group below 2" invariant
// every secure group of the FL server keeps. Spans are half-open
// [start, end) pairs. When n < groupSize the single span is undersized;
// callers must reject it or refuse it downstream.
func GroupSpans(n, groupSize int) [][2]int {
	if n <= 0 || groupSize <= 0 {
		return nil
	}
	num := n / groupSize
	if num == 0 {
		num = 1
	}
	spans := make([][2]int, num)
	for g := range spans {
		spans[g] = [2]int{g * groupSize, (g + 1) * groupSize}
	}
	spans[num-1][1] = n
	return spans
}

// FixedPointScale is the fixed-point scale for Encode/Decode: values are
// quantized to 1/FixedPointScale resolution.
const FixedPointScale = 1 << 20

// encodeInto maps a real vector into field elements over out[:len(x)],
// whatever it held, using fixed-point, two's complement style: negative
// values wrap mod P. The decoded sum is correct as long as |Σ x_i|·scale <
// P/2, comfortably true for model updates.
func encodeInto(out []uint64, x []float64) []uint64 {
	out = out[:len(x)]
	for i, v := range x {
		q := int64(math.Round(v * FixedPointScale))
		if q >= 0 {
			out[i] = field.Reduce(uint64(q))
		} else {
			out[i] = field.Sub(0, field.Reduce(uint64(-q)))
		}
	}
	return out
}

// decodeInto inverts encodeInto on an aggregate into out, len(y) elements,
// mapping field elements in the top half of the field back to negative reals.
func decodeInto(out []float64, y []uint64) []float64 {
	half := field.P / 2
	for i, v := range y {
		if v > half {
			out[i] = -float64(field.P-v) / FixedPointScale
		} else {
			out[i] = float64(v) / FixedPointScale
		}
	}
	return out
}

// prgChunkElems bounds the transient keystream buffer of prgApply: masks of
// any length stream through one fixed 4 KiB chunk.
const prgChunkElems = 512

// prgChunk is that buffer. Whoever expands masks owns one for as long as it
// does (maskScratch) and hands it to every prgApply call.
type prgChunk [8 * prgChunkElems]byte

// maskScratch is one of an instance's two vectors, the masked input and the
// server's running sum (lend), with the keystream chunk prgApply streams
// through while masks fold into it. Scratch is pooled package-wide, so
// clients and servers of successive instances reuse it; it goes back
// wiped, so no keystream or masked vector outlives its user.
type maskScratch struct {
	chunk prgChunk
	vec   []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(maskScratch) }}

// lend takes a pooled scratch whose vec is n zero elements.
func lend(n int) *maskScratch {
	s := scratchPool.Get().(*maskScratch)
	if cap(s.vec) < n {
		s.vec = make([]uint64, n)
	}
	s.vec = s.vec[:n] // zero: pooled wiped
	return s
}

// release wipes s, all of its vec's capacity too, and pools it.
func (s *maskScratch) release() {
	clear(s.chunk[:])
	clear(s.vec[:cap(s.vec)])
	scratchPool.Put(s)
}

// zeroChunk is a shared all-zero XOR source; XORKeyStream against it writes
// raw keystream without first clearing the destination. Its head is also
// the CTR stream's zero IV.
var zeroChunk prgChunk

// prgApply expands a 32-byte seed with AES-256-CTR and adds (sub=false) or
// subtracts (sub=true) the resulting field elements into dst: one
// field.AddBE/SubBE per 4 KiB chunk of the caller's, so an expansion
// allocates only its cipher state whatever VectorLen. Device and server
// (after reconstruction) produce identical streams: CTR over a zero IV.
// At 4 097 elements the keystream is most of the time, about 7 µs, and the
// AVX2 fold about 2 µs more (the scalar fold about 13; BenchmarkPRG).
func prgApply(seed []byte, dst []uint64, sub bool, buf *prgChunk) {
	if len(seed) != 32 {
		panic(fmt.Sprintf("secagg: prg seed must be 32 bytes, got %d", len(seed)))
	}
	block, err := aes.NewCipher(seed)
	if err != nil {
		panic("secagg: aes: " + err.Error()) // impossible for 32-byte key
	}
	stream := cipher.NewCTR(block, zeroChunk[:aes.BlockSize])
	for off := 0; off < len(dst); off += prgChunkElems {
		n := min(len(dst)-off, prgChunkElems)
		stream.XORKeyStream(buf[:8*n], zeroChunk[:8*n])
		if sub {
			field.SubBE(dst[off:off+n], buf[:8*n])
		} else {
			field.AddBE(dst[off:off+n], buf[:8*n])
		}
	}
}

// pairwiseSeed hashes an ECDH shared secret (or a personal seed) into a PRG
// seed with a domain separation tag.
func pairwiseSeed(shared []byte, tag byte) [32]byte {
	var pre [5 + secretByteLen]byte
	return sha256.Sum256(append(append(pre[:0], 's', 'a', 'g', 'g', tag), shared...))
}
