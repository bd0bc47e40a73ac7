//go:build !amd64 || race

package tensor

func addBEAVX2([]float64, []byte)                 { panic("tensor: no AVX2 fold in this build") }
func addLUTAVX2([]float64, *[256]float64, []byte) { panic("tensor: no AVX2 fold in this build") }
