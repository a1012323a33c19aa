#include "textflag.h"

// Lanes run across the output column j. Every lane multiplies (VMULPD) and
// then adds (VADDPD), each rounding once — the scalar sequence of the Go
// bodies in simd.go. Fused multiply-add rounds once for both and would
// change the bits; `make check-paths` rejects its mnemonics in this file.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// STEP adds the k-th term to one accumulator: acc += Y8 · b[k, off/8 .. +4).
#define STEP(off, acc, tmp) \
	VMULPD off(BX), Y8, tmp; \
	VADDPD tmp, acc, acc

// KLOOP walks a (AX, stride R8 bytes) and b (BX, stride R9 bytes) over all
// k terms, running body once per term with a[k] broadcast in Y8.
#define KLOOP(label, body) \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ R10, R11; \
label: \
	VBROADCASTSD (AX), Y8; \
	body; \
	ADDQ R8, AX; \
	ADDQ R9, BX; \
	DECQ R11; \
	JNZ  label

// NEXT advances dst and b by one column block of cols elements.
#define NEXT(cols) \
	ADDQ $(cols*8), DI; \
	ADDQ $(cols*8), DX; \
	SUBQ $cols, CX

// func panelAVX2(dst, a *float64, as int, b *float64, bc, k, n int)
//
// Column blocks of 32, 16, 8 and 4: a block's accumulators are loaded from
// dst once, stay in registers across all k terms (k ascending), and are
// stored once. Blocks are independent, so their order does not matter.
TEXT ·panelAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ as+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ bc+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ n+48(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9

block32:
	CMPQ CX, $32
	JLT  block16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	KLOOP(loop32, STEP(0, Y0, Y9); STEP(32, Y1, Y10); STEP(64, Y2, Y11); STEP(96, Y3, Y12); STEP(128, Y4, Y13); STEP(160, Y5, Y14); STEP(192, Y6, Y15); STEP(224, Y7, Y9))
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	NEXT(32)
	JMP  block32

block16:
	CMPQ CX, $16
	JLT  block8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	KLOOP(loop16, STEP(0, Y0, Y9); STEP(32, Y1, Y10); STEP(64, Y2, Y11); STEP(96, Y3, Y12))
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	NEXT(16)

block8:
	CMPQ CX, $8
	JLT  block4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	KLOOP(loop8, STEP(0, Y0, Y9); STEP(32, Y1, Y10))
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	NEXT(8)

block4:
	CMPQ CX, $4
	JLT  done
	VMOVUPD 0(DI), Y0
	KLOOP(loop4, STEP(0, Y0, Y9))
	VMOVUPD Y0, 0(DI)

done:
	VZEROUPPER
	RET

// func oneHotRowAVX2(dst, wt, w0, w1 *float64, c0, c1 float64, n int)
TEXT ·oneHotRowAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ wt+8(FP), SI
	MOVQ w0+16(FP), DX
	MOVQ w1+24(FP), BX
	VBROADCASTSD c0+32(FP), Y14
	VBROADCASTSD c1+40(FP), Y15
	MOVQ n+48(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

row4:
	VMULPD (DX)(AX*1), Y14, Y0
	VADDPD (SI)(AX*1), Y0, Y0
	VMULPD (BX)(AX*1), Y15, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  row4
	VZEROUPPER
	RET
