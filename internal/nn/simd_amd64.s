#include "textflag.h"

// Lanes run across the output column j. Every lane multiplies (VMULPD) and
// then adds (VADDPD), each rounding once — the scalar sequence of the Go
// bodies in simd.go. Fused multiply-add rounds once for both and would
// change the bits; `make check-paths` rejects its mnemonics in every .s file
// of this package.

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
// k terms, running body once per term with a[k] broadcast in Y8. Every loop
// head in this file is PCALIGNed to a cache line (which also aligns the
// function), so a loop's speed does not depend on where the linker put it.
#define KLOOP(label, body) \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ R10, R11; \
	PCALIGN $64; \
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

	PCALIGN $64
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

// ROW4 adds the k-th term to one row's four accumulators: the row's a[k] is
// broadcast in av, b[k, 0..32) sits in Z16–Z19.
#define ROW4(av, c0, c1, c2, c3) \
	VMULPD Z16, av, Z24; \
	VMULPD Z17, av, Z25; \
	VMULPD Z18, av, Z26; \
	VMULPD Z19, av, Z27; \
	VADDPD Z24, c0, c0; \
	VADDPD Z25, c1, c1; \
	VADDPD Z26, c2, c2; \
	VADDPD Z27, c3, c3

// LOAD4 and STORE4 move one row's 32 columns between memory and registers.
#define LOAD4(ptr, c0, c1, c2, c3) \
	VMOVUPD 0(ptr), c0; \
	VMOVUPD 64(ptr), c1; \
	VMOVUPD 128(ptr), c2; \
	VMOVUPD 192(ptr), c3

#define STORE4(ptr, c0, c1, c2, c3) \
	VMOVUPD c0, 0(ptr); \
	VMOVUPD c1, 64(ptr); \
	VMOVUPD c2, 128(ptr); \
	VMOVUPD c3, 192(ptr)

// func panel4AVX512(dst *float64, ds int, a *float64, as int, b *float64, bc, k, n int)
//
// Four rows of dst (stride ds) against four rows of a (stride as, k
// contiguous) in column blocks of 32: the block's 16 accumulators stay in
// Z0–Z15 across all k terms (k ascending), and each vector of b is loaded
// once for the four rows that use it — a quarter of panelAVX2's traffic on
// b, which is what bounds it. Per element the arithmetic is panelAVX2's.
TEXT ·panel4AVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ a+16(FP), SI
	MOVQ as+24(FP), R8
	MOVQ b+32(FP), DX
	MOVQ bc+40(FP), R9
	MOVQ k+48(FP), R10
	MOVQ n+56(FP), CX
	SHLQ $3, R12
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R13 // byte offset of a's fourth row

cols32:
	LEAQ (DI)(R12*1), AX
	LEAQ (DI)(R12*2), BX
	LEAQ (BX)(R12*1), R11
	LOAD4(DI, Z0, Z1, Z2, Z3)
	LOAD4(AX, Z4, Z5, Z6, Z7)
	LOAD4(BX, Z8, Z9, Z10, Z11)
	LOAD4(R11, Z12, Z13, Z14, Z15)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, R11
	PCALIGN $64
loop4x32:
	LOAD4(BX, Z16, Z17, Z18, Z19)
	VBROADCASTSD (AX), Z20
	VBROADCASTSD (AX)(R8*1), Z21
	VBROADCASTSD (AX)(R8*2), Z22
	VBROADCASTSD (AX)(R13*1), Z23
	ROW4(Z20, Z0, Z1, Z2, Z3)
	ROW4(Z21, Z4, Z5, Z6, Z7)
	ROW4(Z22, Z8, Z9, Z10, Z11)
	ROW4(Z23, Z12, Z13, Z14, Z15)
	ADDQ $8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  loop4x32
	LEAQ (DI)(R12*1), AX
	LEAQ (DI)(R12*2), BX
	LEAQ (BX)(R12*1), R11
	STORE4(DI, Z0, Z1, Z2, Z3)
	STORE4(AX, Z4, Z5, Z6, Z7)
	STORE4(BX, Z8, Z9, Z10, Z11)
	STORE4(R11, Z12, Z13, Z14, Z15)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, CX
	JNZ  cols32
	VZEROUPPER
	RET

// DOT adds one k term to the four row accumulators: tile holds b[j..j+4, k]
// across its lanes, off is k's byte offset from element AX of each row of a.
#define DOT(off, tile) \
	VBROADCASTSD off(SI)(AX*8), Y4; \
	VBROADCASTSD off(R8)(AX*8), Y5; \
	VBROADCASTSD off(R9)(AX*8), Y6; \
	VBROADCASTSD off(R10)(AX*8), Y7; \
	VMULPD tile, Y4, Y4; \
	VMULPD tile, Y5, Y5; \
	VMULPD tile, Y6, Y6; \
	VMULPD tile, Y7, Y7; \
	VADDPD Y4, Y8, Y8; \
	VADDPD Y5, Y9, Y9; \
	VADDPD Y6, Y10, Y10; \
	VADDPD Y7, Y11, Y11

// func dotRowsAVX2(dst *float64, ds int, a *float64, as int, b *float64, bc, rows, k, n int)
//
// Up to four rows of a (SI, R8, R9, R10; rows past the last repeat it and
// are never stored) against four rows of b at a time (BX, R11, R12, R13).
// Both operands are contiguous along k, the summed axis, so four k of each
// of the four rows of b are loaded and transposed in registers: Y0–Y3 then
// each hold one k across the four output columns, lanes run across j as in
// panelAVX2, and Y8–Y11 keep one row's four running sums, k ascending from
// +0. A k tail of one to three terms gathers its tile element by element.
// The finished sums are added to dst once.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ as+24(FP), AX
	MOVQ b+32(FP), BX
	MOVQ rows+48(FP), CX
	MOVQ n+64(FP), DX
	SHLQ $3, AX
	MOVQ SI, R8
	MOVQ SI, R9
	MOVQ SI, R10
	CMPQ CX, $2
	JLT  tile
	ADDQ AX, R8
	MOVQ R8, R9
	MOVQ R8, R10
	CMPQ CX, $3
	JLT  tile
	ADDQ AX, R9
	MOVQ R9, R10
	CMPQ CX, $4
	JLT  tile
	ADDQ AX, R10

tile:
	MOVQ bc+40(FP), AX
	LEAQ (BX)(AX*8), R11
	LEAQ (R11)(AX*8), R12
	LEAQ (R12)(AX*8), R13
	MOVQ k+56(FP), CX
	ANDQ $-4, CX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ AX, AX
	CMPQ AX, CX
	JGE  ktail

	PCALIGN $64
k4:
	VMOVUPD (BX)(AX*8), Y0
	VMOVUPD (R11)(AX*8), Y1
	VMOVUPD (R12)(AX*8), Y2
	VMOVUPD (R13)(AX*8), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	DOT(0, Y0)
	DOT(8, Y1)
	DOT(16, Y2)
	DOT(24, Y3)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  k4

ktail:
	CMPQ AX, k+56(FP)
	JGE  sums
	VMOVSD (BX)(AX*8), X0
	VMOVHPD (R11)(AX*8), X0, X0
	VMOVSD (R12)(AX*8), X1
	VMOVHPD (R13)(AX*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	DOT(0, Y0)
	INCQ AX
	JMP  ktail

sums:
	MOVQ ds+8(FP), AX
	MOVQ rows+48(FP), CX
	MOVQ DI, BX
	VADDPD (BX), Y8, Y8
	VMOVUPD Y8, (BX)
	CMPQ CX, $2
	JLT  next
	LEAQ (BX)(AX*8), BX
	VADDPD (BX), Y9, Y9
	VMOVUPD Y9, (BX)
	CMPQ CX, $3
	JLT  next
	LEAQ (BX)(AX*8), BX
	VADDPD (BX), Y10, Y10
	VMOVUPD Y10, (BX)
	CMPQ CX, $4
	JLT  next
	LEAQ (BX)(AX*8), BX
	VADDPD (BX), Y11, Y11
	VMOVUPD Y11, (BX)

next:
	ADDQ $32, DI
	MOVQ bc+40(FP), AX
	LEAQ (R13)(AX*8), BX
	SUBQ $4, DX
	JNZ  tile
	VZEROUPPER
	RET

// func addToAVX2(dst, src *float64, n int)
TEXT ·addToAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-128, DX
	CMPQ AX, DX
	JGE  add4

	PCALIGN $64
add16:
	VMOVUPD 0(DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	VADDPD 0(SI)(AX*1), Y0, Y0
	VADDPD 32(SI)(AX*1), Y1, Y1
	VADDPD 64(SI)(AX*1), Y2, Y2
	VADDPD 96(SI)(AX*1), Y3, Y3
	VMOVUPD Y0, 0(DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	CMPQ AX, DX
	JLT  add16

add4:
	CMPQ AX, CX
	JGE  added
	VMOVUPD (DI)(AX*1), Y0
	VADDPD (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  add4

added:
	VZEROUPPER
	RET

// func reluToAVX2(dst, src *float64, n int)
//
// dst = src with every element below zero replaced by +0: the compare is
// false for NaN and for -0, which pass through, and the result is the
// source's own bits and-ed with the inverted mask.
TEXT ·reluToAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

	PCALIGN $64
relu4:
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD $0x11, Y15, Y0, Y1 // LT_OQ: src < 0
	VANDNPD Y0, Y1, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  relu4
	VZEROUPPER
	RET

// func reluGradAVX2(dst, grad, x *float64, n int)
//
// dst = x > 0 ? dst + g : dst, a blend of the sum and the untouched element
// (not an add of a masked zero, which would rewrite a -0).
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

	PCALIGN $64
grad4:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (DX)(AX*1), Y2
	VADDPD (SI)(AX*1), Y0, Y1
	VCMPPD $0x1E, Y15, Y2, Y3 // GT_OQ: x > 0
	VBLENDVPD Y3, Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  grad4
	VZEROUPPER
	RET
