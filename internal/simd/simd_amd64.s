#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func dot(q []float64, codes []int16) int64
//
// 16 codes per pass: sign-extend four codes at a time to int32, convert
// them to float64 and fuse them with the query into one of four
// accumulators. The caller guarantees len(codes) == len(q) and a positive
// multiple of 16.
TEXT ·dot(SB), NOSPLIT, $0-56
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ codes_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop:
	VPMOVSXWD (DI), X4
	VPMOVSXWD 8(DI), X5
	VPMOVSXWD 16(DI), X6
	VPMOVSXWD 24(DI), X7
	VCVTDQ2PD X4, Y4
	VCVTDQ2PD X5, Y5
	VCVTDQ2PD X6, Y6
	VCVTDQ2PD X7, Y7
	VFMADD231PD (SI), Y4, Y0
	VFMADD231PD 32(SI), Y5, Y1
	VFMADD231PD 64(SI), Y6, Y2
	VFMADD231PD 96(SI), Y7, Y3
	ADDQ $32, DI
	ADDQ $128, SI
	SUBQ $16, CX
	JNZ  loop

	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER
	CVTTSD2SQ    X0, AX
	MOVQ         AX, ret+48(FP)
	RET

// func axpy(dst []float32, w float32, src []float32)
//
// Eight lanes per pass, then one at a time: multiply (rounded to float32),
// then add — no FMA, so every element gets the two roundings of the Go
// loop. The caller guarantees len(src) >= len(dst) > 0.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+32(FP), SI
	VBROADCASTSS w+24(FP), Y0
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           tail

loop8:
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     loop8

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VMULSS (SI), X0, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET
