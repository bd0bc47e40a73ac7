package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"testing"
)

// BenchmarkPRG times one mask expansion of the benchmark's secure vector
// (4 097 elements): "aes-ctr" is the keystream alone, the floor prgApply's
// fold sits on, and "prgApply" adds the fold.
func BenchmarkPRG(b *testing.B) {
	const n = 4097
	seed := make([]byte, 32)
	dst, buf := make([]uint64, n), new(prgChunk)
	b.Run("aes-ctr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			block, _ := aes.NewCipher(seed)
			stream := cipher.NewCTR(block, make([]byte, aes.BlockSize))
			for off := 0; off < n; off += prgChunkElems {
				m := min(n-off, prgChunkElems)
				stream.XORKeyStream(buf[:8*m], zeroChunk[:8*m])
			}
		}
	})
	b.Run("prgApply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prgApply(seed, dst, i&1 == 1, buf)
		}
	})
}
