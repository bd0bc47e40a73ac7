package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/field"
)

// useAVX2 is internal/field's kernel switch, which BenchmarkPRG flips to
// time the scalar loops on a host that has the AVX2 kernels.
//
//go:linkname useAVX2 repro/internal/field.useAVX2
var useAVX2 bool

// BenchmarkPRG times one mask expansion of the benchmark's secure vector
// (4 097 elements): "aes-ctr" is the keystream alone, the floor prgApply's
// fold sits on; "generic" and "avx2" add the fold on each path this host
// has.
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
	host := useAVX2
	defer func() { useAVX2 = host }()
	for _, path := range []string{"generic", "avx2"} {
		if path == "avx2" && !field.AVX2 {
			continue
		}
		useAVX2 = path == "avx2"
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prgApply(seed, dst, i&1 == 1, buf)
			}
		})
	}
}
