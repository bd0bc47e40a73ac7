//go:build !race

package field

//go:noescape
func addVecAVX2(dst, a, b []uint64)

//go:noescape
func addBEAVX2(dst []uint64, src []byte)

//go:noescape
func subBEAVX2(dst []uint64, src []byte)

// AVX2 is the tree's one CPUID probe (AVX2, and YMM state saved by the OS),
// taken at init; tensor's fold reads it too.
var AVX2 = cpuAVX2()

func cpuAVX2() bool
