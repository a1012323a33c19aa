//go:build !nn_generic

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

// panel4AVX512 keeps row r's accumulators in Z(4r)..Z(4r+3), the current
// vectors of b in Z16–Z19, row r's broadcast a[k] in Z(20+r) and the
// products in Z24–Z27. The macros below are its pieces for 1 to 4 rows:
// a row count's loops are built from them, so no phantom row is ever
// multiplied.

// DSTROWS points AX, BX and R11 at dst's rows 1, 2 and 3 (DI is row 0);
// the addresses of rows a call does not have are formed, never used.
#define DSTROWS \
	LEAQ (DI)(R12*1), AX; \
	LEAQ (DI)(R12*2), BX; \
	LEAQ (BX)(R12*1), R11

// KLOOP4 walks a's rows (AX, k contiguous, rows R8 bytes apart) and b (BX,
// stride R9 bytes) over all k terms, k ascending, running body once per
// term.
#define KLOOP4(label, body) \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ R10, R11; \
	PCALIGN $64; \
label: \
	body; \
	ADDQ $8, AX; \
	ADDQ R9, BX; \
	DECQ R11; \
	JNZ  label

// BCASTn broadcasts the k-th term of a's first n rows into Z20..Z(19+n);
// R13 holds the byte offset of the fourth row.
#define BCAST1 VBROADCASTSD (AX), Z20
#define BCAST2 BCAST1; VBROADCASTSD (AX)(R8*1), Z21
#define BCAST3 BCAST2; VBROADCASTSD (AX)(R8*2), Z22
#define BCAST4 BCAST3; VBROADCASTSD (AX)(R13*1), Z23

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

#define TERMS32_1 ROW4(Z20, Z0, Z1, Z2, Z3)
#define TERMS32_2 TERMS32_1; ROW4(Z21, Z4, Z5, Z6, Z7)
#define TERMS32_3 TERMS32_2; ROW4(Z22, Z8, Z9, Z10, Z11)
#define TERMS32_4 TERMS32_3; ROW4(Z23, Z12, Z13, Z14, Z15)

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

#define LOAD32_1 LOAD4(DI, Z0, Z1, Z2, Z3)
#define LOAD32_2 LOAD32_1; LOAD4(AX, Z4, Z5, Z6, Z7)
#define LOAD32_3 LOAD32_2; LOAD4(BX, Z8, Z9, Z10, Z11)
#define LOAD32_4 LOAD32_3; LOAD4(R11, Z12, Z13, Z14, Z15)

#define STORE32_1 STORE4(DI, Z0, Z1, Z2, Z3)
#define STORE32_2 STORE32_1; STORE4(AX, Z4, Z5, Z6, Z7)
#define STORE32_3 STORE32_2; STORE4(BX, Z8, Z9, Z10, Z11)
#define STORE32_4 STORE32_3; STORE4(R11, Z12, Z13, Z14, Z15)

// TERM8 adds the k-th term to one row's 8-column accumulator c: a[k] in av,
// b[k, 0..8) in Z16, the product in t.
#define TERM8(av, c, t) \
	VMULPD Z16, av, t; \
	VADDPD t, c, c

#define TERMS8_1 TERM8(Z20, Z0, Z24)
#define TERMS8_2 TERMS8_1; TERM8(Z21, Z4, Z25)
#define TERMS8_3 TERMS8_2; TERM8(Z22, Z8, Z26)
#define TERMS8_4 TERMS8_3; TERM8(Z23, Z12, Z27)

// LOAD8_n and STORE8_n move the first n rows' 8 columns; LOADM_n and
// STOREM_n the lanes K1 selects of them. A masked load zeroes the other
// lanes and touches no memory for them, and a masked store leaves theirs
// as it is.
#define LOAD8_1 VMOVUPD (DI), Z0
#define LOAD8_2 LOAD8_1; VMOVUPD (AX), Z4
#define LOAD8_3 LOAD8_2; VMOVUPD (BX), Z8
#define LOAD8_4 LOAD8_3; VMOVUPD (R11), Z12

#define STORE8_1 VMOVUPD Z0, (DI)
#define STORE8_2 STORE8_1; VMOVUPD Z4, (AX)
#define STORE8_3 STORE8_2; VMOVUPD Z8, (BX)
#define STORE8_4 STORE8_3; VMOVUPD Z12, (R11)

#define LOADM_1 VMOVUPD.Z (DI), K1, Z0
#define LOADM_2 LOADM_1; VMOVUPD.Z (AX), K1, Z4
#define LOADM_3 LOADM_2; VMOVUPD.Z (BX), K1, Z8
#define LOADM_4 LOADM_3; VMOVUPD.Z (R11), K1, Z12

#define STOREM_1 VMOVUPD Z0, K1, (DI)
#define STOREM_2 STOREM_1; VMOVUPD Z4, K1, (AX)
#define STOREM_3 STOREM_2; VMOVUPD Z8, K1, (BX)
#define STOREM_4 STOREM_3; VMOVUPD Z12, K1, (R11)

// B32, B8 and BM load b's k-th vectors for a block into Z16 (–Z19).
#define B32 LOAD4(BX, Z16, Z17, Z18, Z19)
#define B8 VMOVUPD (BX), Z16
#define BM VMOVUPD.Z (BX), K1, Z16

// ROWS is panel4AVX512's body for one row count: blocks of 32 columns while
// 32 remain, then blocks of 8 while 8 remain, then one block over the last
// n mod 8 columns under the mask K1 = (1 << (n mod 8)) − 1. The labels are
// the caller's, one set per row count.
#define ROWS(c32, k32, c8, k8, cm, km, bcast, terms32, load32, store32, terms8, load8, store8, loadm, storem) \
	CMPQ CX, $32; \
	JLT  c8; \
c32: \
	DSTROWS; \
	load32; \
	KLOOP4(k32, B32; bcast; terms32); \
	DSTROWS; \
	store32; \
	NEXT(32); \
	CMPQ CX, $32; \
	JGE  c32; \
c8: \
	CMPQ CX, $8; \
	JLT  cm; \
	DSTROWS; \
	load8; \
	KLOOP4(k8, B8; bcast; terms8); \
	DSTROWS; \
	store8; \
	NEXT(8); \
	JMP  c8; \
cm: \
	TESTQ CX, CX; \
	JZ   done; \
	MOVQ $1, AX; \
	SHLQ CX, AX; \
	DECQ AX; \
	KMOVW AX, K1; \
	DSTROWS; \
	loadm; \
	KLOOP4(km, BM; bcast; terms8); \
	DSTROWS; \
	storem; \
	JMP  done

// func panel4AVX512(dst *float64, ds int, a *float64, as int, b *float64, bc, k, n, rows int)
//
// rows (1–4) rows of dst (stride ds) against as many rows of a (stride as,
// k contiguous): a block's accumulators stay in registers across all k
// terms (k ascending), and each vector of b is loaded once for the rows
// that use it — with four rows a quarter of panelAVX2's traffic on b, which
// is what bounds it. Per element the arithmetic is panelAVX2's; a masked
// lane is never loaded or stored.
TEXT ·panel4AVX512(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ a+16(FP), SI
	MOVQ as+24(FP), R8
	MOVQ b+32(FP), DX
	MOVQ bc+40(FP), R9
	MOVQ k+48(FP), R10
	MOVQ n+56(FP), CX
	MOVQ rows+64(FP), AX
	SHLQ $3, R12
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R13 // byte offset of a's fourth row
	CMPQ AX, $2
	JLT  rows1
	JEQ  rows2
	CMPQ AX, $4
	JLT  rows3
	ROWS(r4c32, r4k32, r4c8, r4k8, r4cm, r4km, BCAST4, TERMS32_4, LOAD32_4, STORE32_4, TERMS8_4, LOAD8_4, STORE8_4, LOADM_4, STOREM_4)
rows3:
	ROWS(r3c32, r3k32, r3c8, r3k8, r3cm, r3km, BCAST3, TERMS32_3, LOAD32_3, STORE32_3, TERMS8_3, LOAD8_3, STORE8_3, LOADM_3, STOREM_3)
rows2:
	ROWS(r2c32, r2k32, r2c8, r2k8, r2cm, r2km, BCAST2, TERMS32_2, LOAD32_2, STORE32_2, TERMS8_2, LOAD8_2, STORE8_2, LOADM_2, STOREM_2)
rows1:
	ROWS(r1c32, r1k32, r1c8, r1k8, r1cm, r1km, BCAST1, TERMS32_1, LOAD32_1, STORE32_1, TERMS8_1, LOAD8_1, STORE8_1, LOADM_1, STOREM_1)
done:
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

// LOADROW loads elements c..c+7 of lane i's key row — at element offset
// off[i] (grp at SI) from w's column c (BX) — into zr.
#define LOADROW(i, zr) \
	MOVQ (i*8)(SI), R9; \
	VMOVUPD (BX)(R9*8), zr

// COLUMN finishes key column c+i, whose one-hot elements sit in zc across
// the lanes: each lane forms its key element as oneHotRow does, (wt +
// c0·w0[c+i]) + c1·w1[c+i], then adds q[c+i]·k to its sum in Z0.
#define COLUMN(i, zc) \
	VBROADCASTSD (i*8)(DX), Z4; \
	VMULPD Z4, Z2, Z4; \
	VADDPD Z4, zc, zc; \
	VBROADCASTSD (i*8)(R8), Z5; \
	VMULPD Z5, Z3, Z5; \
	VADDPD Z5, zc, zc; \
	VBROADCASTSD (i*8)(AX), Z6; \
	VMULPD zc, Z6, Z6; \
	VADDPD Z6, Z0, Z0

// func rootScoresAVX512(dst *float64, grp *keyGroup, q, w, w0, w1 *float64, d int, invScale float64)
//
// Lanes run across the eight keys of grp, each with its own sum, which
// starts at +0 and takes one q[c]·k term per key column c, c ascending; the
// sums are scaled once at the end. Columns go eight at a time: the eight
// keys' rows are loaded c..c+7 and transposed in registers (unpack pairs,
// then two rounds of 128-bit shuffles), which yields one vector per column
// with the lanes across keys. The d mod 8 trailing columns gather each
// lane's element instead; the gather clears its mask as it completes, so
// the mask is set again every column.
TEXT ·rootScoresAVX512(SB), NOSPLIT, $0-64
	MOVQ grp+8(FP), SI
	MOVQ q+16(FP), AX
	MOVQ w+24(FP), BX
	MOVQ w0+32(FP), DX
	MOVQ w1+40(FP), R8
	MOVQ d+48(FP), CX
	VMOVDQU64 0(SI), Z1   // off, in elements
	VMOVUPD 64(SI), Z2    // c0
	VMOVUPD 128(SI), Z3   // c1
	VPXORQ Z0, Z0, Z0     // the eight sums, +0

	CMPQ CX, $8
	JLT  tail

	PCALIGN $64
block8:
	LOADROW(0, Z8)
	LOADROW(1, Z9)
	LOADROW(2, Z10)
	LOADROW(3, Z11)
	LOADROW(4, Z12)
	LOADROW(5, Z13)
	LOADROW(6, Z14)
	LOADROW(7, Z15)
	// Row r, column j is rj. Pairs of rows, per 128-bit chunk:
	// Z16 = [00 10|02 12|04 14|06 16], Z17 = [01 11|03 13|05 15|07 17], …
	VUNPCKLPD Z9, Z8, Z16
	VUNPCKHPD Z9, Z8, Z17
	VUNPCKLPD Z11, Z10, Z18
	VUNPCKHPD Z11, Z10, Z19
	VUNPCKLPD Z13, Z12, Z20
	VUNPCKHPD Z13, Z12, Z21
	VUNPCKLPD Z15, Z14, Z22
	VUNPCKHPD Z15, Z14, Z23
	// Rows 0–3 and 4–7 by chunk: Z8 = [00 10|04 14|20 30|24 34], …
	VSHUFF64X2 $0x88, Z18, Z16, Z8
	VSHUFF64X2 $0xDD, Z18, Z16, Z9
	VSHUFF64X2 $0x88, Z19, Z17, Z10
	VSHUFF64X2 $0xDD, Z19, Z17, Z11
	VSHUFF64X2 $0x88, Z22, Z20, Z12
	VSHUFF64X2 $0xDD, Z22, Z20, Z13
	VSHUFF64X2 $0x88, Z23, Z21, Z14
	VSHUFF64X2 $0xDD, Z23, Z21, Z15
	// One column per register: Z16 = [00 10 20 30 40 50 60 70], …, Z23.
	VSHUFF64X2 $0x88, Z12, Z8, Z16
	VSHUFF64X2 $0x88, Z14, Z10, Z17
	VSHUFF64X2 $0x88, Z13, Z9, Z18
	VSHUFF64X2 $0x88, Z15, Z11, Z19
	VSHUFF64X2 $0xDD, Z12, Z8, Z20
	VSHUFF64X2 $0xDD, Z14, Z10, Z21
	VSHUFF64X2 $0xDD, Z13, Z9, Z22
	VSHUFF64X2 $0xDD, Z15, Z11, Z23
	COLUMN(0, Z16)
	COLUMN(1, Z17)
	COLUMN(2, Z18)
	COLUMN(3, Z19)
	COLUMN(4, Z20)
	COLUMN(5, Z21)
	COLUMN(6, Z22)
	COLUMN(7, Z23)
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, DX
	ADDQ $64, R8
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  block8

tail:
	TESTQ CX, CX
	JZ    done

	PCALIGN $64
col:
	KXNORW K0, K0, K1
	VGATHERQPD (BX)(Z1*8), K1, Z16
	COLUMN(0, Z16)
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, DX
	ADDQ $8, R8
	DECQ CX
	JNZ  col

done:
	MOVQ dst+0(FP), DI
	VBROADCASTSD invScale+56(FP), Z5
	VMULPD Z5, Z0, Z0
	VMOVUPD Z0, (DI)
	VZEROUPPER
	RET
