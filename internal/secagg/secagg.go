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
// Updates are real vectors; they are carried in Z/2^64 as fixed-point two's
// complement (encodeInto/decodeInto), where masks are uniform words and
// cancel exactly. Secrets are Shamir-shared, and shares committed, in
// GF(2^61−1) (internal/field).
package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
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

// checkInput refuses an input the ring cannot carry: the wrong length, or
// an element that is NaN, ±Inf or rounds to |q| ≥ 2^63/N at the fixed-point
// scale, so that the N inputs of an instance sum without wrapping.
func (c Config) checkInput(x []float64) error {
	if len(x) != c.VectorLen {
		return fmt.Errorf("secagg: input length %d, want %d", len(x), c.VectorLen)
	}
	limit := math.MaxInt64 / int64(c.N) // |q|·N < 2^63 ⟺ |q| ≤ (2^63−1)/N
	for i, v := range x {
		// NaN fails the first test; past it, int64(q) is exact.
		if q := math.Round(v * FixedPointScale); !(math.Abs(q) < 1<<63) || max(int64(q), -int64(q)) > limit {
			return fmt.Errorf("secagg: input element %d is %v, outside ±2^63/%d at scale 2^20", i, v, c.N)
		}
	}
	return nil
}

// encodeInto maps a real vector that passed checkInput into Z/2^64 over
// out[:len(x)], whatever it held: fixed point, two's complement.
func encodeInto(out []uint64, x []float64) []uint64 {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = uint64(int64(math.Round(v * FixedPointScale)))
	}
	return out
}

// decodeInto inverts encodeInto on an aggregate into out, len(y) elements:
// the sum of at most N checked inputs is an int64.
func decodeInto(out []float64, y []uint64) []float64 {
	for i, v := range y {
		out[i] = float64(int64(v)) / FixedPointScale
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
// subtracts (sub=true) the keystream, read as little-endian words, into dst
// mod 2^64, one 4 KiB chunk of the caller's at a time, so an expansion
// allocates only its cipher state whatever VectorLen. Device and server
// (after reconstruction) produce identical streams: CTR over a zero IV. At
// 4 097 words the keystream is most of the time, about 7 µs, and the fold
// about 2 µs more (BenchmarkPRG).
func prgApply(seed []byte, dst []uint64, sub bool, buf *prgChunk) {
	if len(seed) != 32 {
		panic(fmt.Sprintf("secagg: prg seed must be 32 bytes, got %d", len(seed)))
	}
	block, err := aes.NewCipher(seed)
	if err != nil {
		panic("secagg: aes: " + err.Error()) // impossible for 32-byte key
	}
	stream := cipher.NewCTR(block, zeroChunk[:aes.BlockSize])
	sign := uint64(1) // or −1 mod 2^64, to subtract
	if sub {
		sign = ^uint64(0)
	}
	for off := 0; off < len(dst); off += prgChunkElems {
		d := dst[off:min(off+prgChunkElems, len(dst))]
		ks := buf[:8*len(d)]
		stream.XORKeyStream(ks, zeroChunk[:len(ks)])
		for ; len(d) >= 8; d, ks = d[8:], ks[64:] {
			w, x := ks[:64:64], d[:8:8]
			x[0] += binary.LittleEndian.Uint64(w) * sign
			x[1] += binary.LittleEndian.Uint64(w[8:]) * sign
			x[2] += binary.LittleEndian.Uint64(w[16:]) * sign
			x[3] += binary.LittleEndian.Uint64(w[24:]) * sign
			x[4] += binary.LittleEndian.Uint64(w[32:]) * sign
			x[5] += binary.LittleEndian.Uint64(w[40:]) * sign
			x[6] += binary.LittleEndian.Uint64(w[48:]) * sign
			x[7] += binary.LittleEndian.Uint64(w[56:]) * sign
		}
		for i := range d {
			d[i] += binary.LittleEndian.Uint64(ks[8*i:]) * sign
		}
	}
}

// pairwiseSeed hashes an ECDH shared secret (or a personal seed) into a PRG
// seed with a domain separation tag.
func pairwiseSeed(shared []byte, tag byte) [32]byte {
	var pre [5 + secretByteLen]byte
	return sha256.Sum256(append(append(pre[:0], 's', 'a', 'g', 'g', tag), shared...))
}
