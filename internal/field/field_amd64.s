//go:build !race

#include "textflag.h"

// The field's AVX2 kernels, 4 elements per iteration with unaligned loads;
// the callers in field.go pass len(dst) a multiple of 4 and the other
// operands at least as long. Lanes stay below 2^62, so VPCMPGTQ's signed
// compare against zero is exact, and each conditional subtract is the
// scalar ops' own: x − P, plus P back where that went negative.

DATA bswap64<>+0(SB)/8, $0x0001020304050607 // VPSHUFB: reverse each qword
DATA bswap64<>+8(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap64<>+16(SB)/8, $0x0001020304050607
DATA bswap64<>+24(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswap64<>(SB), RODATA|NOPTR, $32
DATA modP<>+0(SB)/8, $0x1fffffffffffffff
GLOBL modP<>(SB), RODATA|NOPTR, $8

// SETUP: the byte-reverse control in Y4, P in every lane of Y5, zero in
// Y6, dst in DI and its length/4 in CX, whose zero flag the JZ reads.
#define SETUP VMOVDQU bswap64<>(SB), Y4; VPBROADCASTQ modP<>(SB), Y5; VPXOR Y6, Y6, Y6; MOVQ dst_base+0(FP), DI; MOVQ dst_len+8(FP), CX; SHRQ $2, CX
// FIXNEG adds P to the negative lanes of Y0.
#define FIXNEG VPCMPGTQ Y0, Y6, Y3; VPAND Y5, Y3, Y3; VPADDQ Y3, Y0, Y0
// REDUCE: 4 big-endian words at SI into Y0, (w & P) + (w >> 61) ≤ P + 7
// less P, FIXNEG.
#define REDUCE VMOVDQU (SI), Y0; VPSHUFB Y4, Y0, Y0; VPSRLQ $61, Y0, Y1; VPAND Y5, Y0, Y0; VPADDQ Y1, Y0, Y0; VPSUBQ Y5, Y0, Y0; FIXNEG
// NEXT stores Y0 at DI, steps SI and DI and loops to l while CX lasts.
#define NEXT(l) VMOVDQU Y0, (DI); ADDQ $32, SI; ADDQ $32, DI; DECQ CX; JNZ l

// func addVecAVX2(dst, a, b []uint64)
TEXT ·addVecAVX2(SB), NOSPLIT, $0-72
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	SETUP
	JZ   vecdone
vecloop:
	VMOVDQU (SI), Y0
	VPADDQ  (DX), Y0, Y0 // a + b < 2P
	VPSUBQ  Y5, Y0, Y0
	FIXNEG
	ADDQ    $32, DX
	NEXT(vecloop)
vecdone:
	VZEROUPPER
	RET

// func addBEAVX2(dst []uint64, src []byte)
TEXT ·addBEAVX2(SB), NOSPLIT, $0-48
	MOVQ src_base+24(FP), SI
	SETUP
	JZ   adddone
addloop:
	REDUCE
	VPADDQ (DI), Y0, Y0 // d + r < 2P
	VPSUBQ Y5, Y0, Y0
	FIXNEG
	NEXT(addloop)
adddone:
	VZEROUPPER
	RET

// func subBEAVX2(dst []uint64, src []byte)
TEXT ·subBEAVX2(SB), NOSPLIT, $0-48
	MOVQ src_base+24(FP), SI
	SETUP
	JZ   subdone
subloop:
	REDUCE
	VMOVDQU (DI), Y2
	VPSUBQ  Y0, Y2, Y0 // d − r, in (−P, P)
	FIXNEG
	NEXT(subloop)
subdone:
	VZEROUPPER
	RET

// func cpuAVX2() bool: CPUID reaches leaf 7, leaf 1 has OSXSAVE and AVX
// (ECX bits 27, 28), XCR0 saves XMM and YMM state, leaf 7 has AVX2 (EBX 5).
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JCS    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	SHRL   $5, BX
	ANDL   $1, BX
	MOVB   BX, ret+0(FP)
no:
	RET
