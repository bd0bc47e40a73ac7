//go:build !race

package tensor

// The kernels of fold_amd64.s: len(v) a multiple of 8, src at least as
// long. noescape keeps a caller's lut on its stack.

//go:noescape
func addBEAVX2(v []float64, src []byte)

//go:noescape
func addLUTAVX2(v []float64, lut *[256]float64, src []byte)

// cpuAVX2 is the tree's one CPUID probe: AVX2, and YMM state saved by the
// OS.
func cpuAVX2() bool

func init() {
	if cpuAVX2() {
		useAVX2, FoldKernel = true, "avx2"
	}
}
