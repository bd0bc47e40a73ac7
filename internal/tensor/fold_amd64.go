//go:build !race

package tensor

import "repro/internal/field"

// The kernels of fold_amd64.s: len(v) a multiple of 8, src at least as
// long. noescape keeps a caller's lut on its stack.

//go:noescape
func addBEAVX2(v []float64, src []byte)

//go:noescape
func addLUTAVX2(v []float64, lut *[256]float64, src []byte)

func init() {
	if field.AVX2 { // the one CPUID probe, in field_amd64.s
		useAVX2, FoldKernel = true, "avx2"
	}
}
