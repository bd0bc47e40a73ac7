//go:build !race

#include "textflag.h"

// The fold's AVX2 kernels, 8 elements per iteration with unaligned loads.
// The callers in wire.go pass len(v) a multiple of 8 and src at least as
// long. Each lane does the scalar loop's one IEEE add, no FMA, no
// reassociation, with the first operand the compiled loop's ADDSD has
// (the decoded src in AddBE, v[i] in AddLUT), so when both are NaN the
// payload that survives is the same too; gathers return the table's bits.

// VPSHUFB control reversing the bytes of each 8-byte lane: big-endian
// float64 bits to little-endian.
DATA bswap64<>+0(SB)/8, $0x0001020304050607
DATA bswap64<>+8(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap64<>+16(SB)/8, $0x0001020304050607
DATA bswap64<>+24(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswap64<>(SB), RODATA|NOPTR, $32

// func addBEAVX2(v []float64, src []byte)
TEXT ·addBEAVX2(SB), NOSPLIT, $0-48
	MOVQ    v_base+0(FP), DI
	MOVQ    v_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	VMOVDQU bswap64<>(SB), Y4
	SHRQ    $3, CX
	JZ      bedone
beloop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPSHUFB Y4, Y0, Y0
	VPSHUFB Y4, Y1, Y1
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     beloop
bedone:
	VZEROUPPER
	RET

// func addLUTAVX2(v []float64, lut *[256]float64, src []byte)
TEXT ·addLUTAVX2(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ lut+24(FP), AX
	MOVQ src_base+32(FP), SI
	SHRQ $3, CX
	JZ   lutdone
lutloop:
	VPMOVZXBD  (SI), X0 // 4 level bytes to 4 dword indices
	VPMOVZXBD  4(SI), X1
	VPCMPEQD   Y4, Y4, Y4 // all-lanes masks, which each gather clears
	VPCMPEQD   Y5, Y5, Y5
	VGATHERDPD Y4, (AX)(X0*8), Y2
	VGATHERDPD Y5, (AX)(X1*8), Y3
	VMOVUPD    (DI), Y6
	VMOVUPD    32(DI), Y7
	VADDPD     Y2, Y6, Y6
	VADDPD     Y3, Y7, Y7
	VMOVUPD    Y6, (DI)
	VMOVUPD    Y7, 32(DI)
	ADDQ       $8, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        lutloop
lutdone:
	VZEROUPPER
	RET
