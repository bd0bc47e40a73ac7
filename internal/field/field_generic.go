//go:build !amd64 || race

package field

// AVX2 is false: the scalar loops only (-race cannot see assembly's stores).
var AVX2 = false

func addVecAVX2(_, _, _ []uint64) { panic("field: no AVX2 kernels in this build") }
func addBEAVX2([]uint64, []byte)  { panic("field: no AVX2 kernels in this build") }
func subBEAVX2([]uint64, []byte)  { panic("field: no AVX2 kernels in this build") }
