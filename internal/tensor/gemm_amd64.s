//go:build !purego

#include "textflag.h"

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// tailmask<>+32-4r is a lane mask selecting the first r of 8 float32 lanes.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// Register use in gemmBlockAVX2:
//
//	SI, R8, R9, R10  A row pointers (rows past the block's last alias it)
//	DX               B
//	R11              k
//	R13              n*4, the row stride of B and C in bytes
//	R14              column offset of the current tile in bytes
//	BX               &B[p][j] in the reduction loop
//	CX               p
//	Y0-Y7            the tile's C values: two vectors per row in 16-wide
//	                 tiles, Y0, Y2, Y4 and Y6 in 8-wide tiles
//	Y8, Y9           B[p][j:j+16]
//	Y10              broadcast A[i][p]
//	Y11, Y12         products
//	Y13              16-wide: the mask set where A[i][p] is ±0;
//	                 8-wide: the column mask
//	Y12              8-wide: the mask set where A[i][p] is ±0
//	Y14              the scan's zero flags
//	Y15              zero
//
// Every element is updated as c = (b*a) + c: the product takes B as its
// first source and the sum takes the product as its first source, the
// operand order the Go compiler emits for ci[j] += float32(av*bp[j]). It
// decides which payload survives when both operands are NaN.

// STEP16 accumulates A[row][p]·B[p][j:j+16] into C0:C1.
#define STEP16(A, C0, C1) \
	VBROADCASTSS (A)(CX*4), Y10; \
	VMULPS       Y10, Y8, Y11;   \
	VADDPS       C0, Y11, C0;    \
	VMULPS       Y10, Y9, Y12;   \
	VADDPS       C1, Y12, C1

// STEP16Z is STEP16 that leaves C0:C1 untouched when A[row][p] is ±0
// (its bits shifted left by one are zero), as the Go kernel skips the step.
#define STEP16Z(A, C0, C1) \
	VBROADCASTSS (A)(CX*4), Y10;  \
	VPSLLD       $1, Y10, Y13;    \
	VPCMPEQD     Y15, Y13, Y13;   \
	VMULPS       Y10, Y8, Y11;    \
	VADDPS       C0, Y11, Y11;    \
	VBLENDVPS    Y13, C0, Y11, C0; \
	VMULPS       Y10, Y9, Y12;    \
	VADDPS       C1, Y12, Y12;    \
	VBLENDVPS    Y13, C1, Y12, C1

#define STEP8(A, C0) \
	VBROADCASTSS (A)(CX*4), Y10; \
	VMULPS       Y10, Y8, Y11;   \
	VADDPS       C0, Y11, C0

#define STEP8Z(A, C0) \
	VBROADCASTSS (A)(CX*4), Y10; \
	VPSLLD       $1, Y10, Y12;   \
	VPCMPEQD     Y15, Y12, Y12;  \
	VMULPS       Y10, Y8, Y11;   \
	VADDPS       C0, Y11, Y11;   \
	VBLENDVPS    Y12, C0, Y11, C0

#define LOADC16 \
	MOVQ    c0-32(SP), AX;       \
	VMOVUPS (AX)(R14*1), Y0;     \
	VMOVUPS 32(AX)(R14*1), Y1;   \
	MOVQ    c1-24(SP), AX;       \
	VMOVUPS (AX)(R14*1), Y2;     \
	VMOVUPS 32(AX)(R14*1), Y3;   \
	MOVQ    c2-16(SP), AX;       \
	VMOVUPS (AX)(R14*1), Y4;     \
	VMOVUPS 32(AX)(R14*1), Y5;   \
	MOVQ    c3-8(SP), AX;        \
	VMOVUPS (AX)(R14*1), Y6;     \
	VMOVUPS 32(AX)(R14*1), Y7

#define STOREC16 \
	MOVQ    c0-32(SP), AX;       \
	VMOVUPS Y0, (AX)(R14*1);     \
	VMOVUPS Y1, 32(AX)(R14*1);   \
	MOVQ    c1-24(SP), AX;       \
	VMOVUPS Y2, (AX)(R14*1);     \
	VMOVUPS Y3, 32(AX)(R14*1);   \
	MOVQ    c2-16(SP), AX;       \
	VMOVUPS Y4, (AX)(R14*1);     \
	VMOVUPS Y5, 32(AX)(R14*1);   \
	MOVQ    c3-8(SP), AX;        \
	VMOVUPS Y6, (AX)(R14*1);     \
	VMOVUPS Y7, 32(AX)(R14*1)

// LOADC8 and STOREC8 load and store the 8-wide tile under the column
// mask M.
#define LOADC8(M) \
	MOVQ       c0-32(SP), AX;          \
	VMASKMOVPS (AX)(R14*1), M, Y0;     \
	MOVQ       c1-24(SP), AX;          \
	VMASKMOVPS (AX)(R14*1), M, Y2;     \
	MOVQ       c2-16(SP), AX;          \
	VMASKMOVPS (AX)(R14*1), M, Y4;     \
	MOVQ       c3-8(SP), AX;           \
	VMASKMOVPS (AX)(R14*1), M, Y6

#define STOREC8(M) \
	MOVQ       c0-32(SP), AX;          \
	VMASKMOVPS Y0, M, (AX)(R14*1);     \
	MOVQ       c1-24(SP), AX;          \
	VMASKMOVPS Y2, M, (AX)(R14*1);     \
	MOVQ       c2-16(SP), AX;          \
	VMASKMOVPS Y4, M, (AX)(R14*1);     \
	MOVQ       c3-8(SP), AX;           \
	VMASKMOVPS Y6, M, (AX)(R14*1)

// TAILMASK loads into M the column mask of the 8-wide tile at R14: the
// lanes below n, at most 8.
#define TAILMASK(M) \
	MOVQ    R13, AX;            \
	SUBQ    R14, AX;            \
	MOVQ    $32, BX;            \
	CMPQ    AX, BX;             \
	CMOVQGT BX, AX;             \
	LEAQ    tailmask<>(SB), BX; \
	ADDQ    $32, BX;            \
	SUBQ    AX, BX;             \
	VMOVDQU (BX), M

// func gemmBlockAVX2(c, a, b *float32, rows, k, n int)
TEXT ·gemmBlockAVX2(SB), NOSPLIT, $32-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ rows+24(FP), AX
	MOVQ k+32(FP), R11
	MOVQ n+40(FP), R13
	SHLQ $2, R13
	MOVQ R11, R12
	SHLQ $2, R12

	// Row pointers of A (R8-R10) and C (frame). A block of fewer than four
	// rows repeats its last row: the copies compute and store that row's
	// values again, identical bit for bit.
	MOVQ DI, c0-32(SP)
	MOVQ SI, R8
	MOVQ DI, BX
	CMPQ AX, $1
	JLE  row1
	ADDQ R12, R8
	ADDQ R13, BX

row1:
	MOVQ BX, c1-24(SP)
	MOVQ R8, R9
	CMPQ AX, $2
	JLE  row2
	ADDQ R12, R9
	ADDQ R13, BX

row2:
	MOVQ BX, c2-16(SP)
	MOVQ R9, R10
	CMPQ AX, $3
	JLE  row3
	ADDQ R12, R10
	ADDQ R13, BX

row3:
	MOVQ BX, c3-8(SP)

	// Scan the block's rows·k contiguous A values for ±0. Blocks without
	// one take the plain loops; the others blend each row's update away
	// at the steps where its A value is zero.
	VPXOR Y15, Y15, Y15
	VPXOR Y14, Y14, Y14
	IMULQ R11, AX
	XORQ  CX, CX

scan8:
	LEAQ     8(CX), BX
	CMPQ     BX, AX
	JGT      scan1
	VMOVDQU  (SI)(CX*4), Y10
	VPSLLD   $1, Y10, Y10
	VPCMPEQD Y15, Y10, Y10
	VPOR     Y10, Y14, Y14
	MOVQ     BX, CX
	JMP      scan8

scan1:
	CMPQ CX, AX
	JGE  scanned
	MOVL (SI)(CX*4), BX
	ADDL BX, BX
	JZ   zero
	INCQ CX
	JMP  scan1

scanned:
	VPTEST Y14, Y14
	JNZ    zero
	XORQ   R14, R14

plain16:
	LEAQ 64(R14), AX
	CMPQ AX, R13
	JGT  plain8
	LOADC16
	LEAQ (DX)(R14*1), BX
	XORQ CX, CX
	PCALIGN $64

plain16loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	STEP16(SI, Y0, Y1)
	STEP16(R8, Y2, Y3)
	STEP16(R9, Y4, Y5)
	STEP16(R10, Y6, Y7)
	ADDQ    R13, BX
	INCQ    CX
	CMPQ    CX, R11
	JLT     plain16loop
	STOREC16
	ADDQ    $64, R14
	JMP     plain16

plain8:
	CMPQ R14, R13
	JGE  done
	TAILMASK(Y13)
	LOADC8(Y13)
	LEAQ (DX)(R14*1), BX
	XORQ CX, CX
	PCALIGN $64

plain8loop:
	VMASKMOVPS (BX), Y13, Y8
	STEP8(SI, Y0)
	STEP8(R8, Y2)
	STEP8(R9, Y4)
	STEP8(R10, Y6)
	ADDQ       R13, BX
	INCQ       CX
	CMPQ       CX, R11
	JLT        plain8loop
	STOREC8(Y13)
	ADDQ       $32, R14
	JMP        plain8

zero:
	XORQ R14, R14

zero16:
	LEAQ 64(R14), AX
	CMPQ AX, R13
	JGT  zero8
	LOADC16
	LEAQ (DX)(R14*1), BX
	XORQ CX, CX
	PCALIGN $64

zero16loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	STEP16Z(SI, Y0, Y1)
	STEP16Z(R8, Y2, Y3)
	STEP16Z(R9, Y4, Y5)
	STEP16Z(R10, Y6, Y7)
	ADDQ    R13, BX
	INCQ    CX
	CMPQ    CX, R11
	JLT     zero16loop
	STOREC16
	ADDQ    $64, R14
	JMP     zero16

zero8:
	CMPQ R14, R13
	JGE  done
	TAILMASK(Y13)
	LOADC8(Y13)
	LEAQ (DX)(R14*1), BX
	XORQ CX, CX
	PCALIGN $64

zero8loop:
	VMASKMOVPS (BX), Y13, Y8
	STEP8Z(SI, Y0)
	STEP8Z(R8, Y2)
	STEP8Z(R9, Y4)
	STEP8Z(R10, Y6)
	ADDQ       R13, BX
	INCQ       CX
	CMPQ       CX, R11
	JLT        zero8loop
	STOREC8(Y13)
	ADDQ       $32, R14
	JMP        zero8

done:
	VZEROUPPER
	RET

// FPRound's field offsets: each field is eight lanes of one constant.
#define FPR_ABS 0
#define FPR_LSB 32
#define FPR_HALF 64
#define FPR_KEEP 96
#define FPR_MAX 128
#define FPR_MINNORM 160
#define FPR_SIGN 192
#define FPR_NAN 224
#define FPR_MAGIC 256
#define FPR_ZERO 288
#define FPR_SHIFT 320

// FPROUND rounds the eight float32 lanes of X in place to the FPRound at
// DI, as FPRound.roundGo does each element, clobbering T1-T3 and without a
// branch: it computes both the normal-range and the below-normal result,
// keeps the one the magnitude selects, restores the sign, and replaces NaN
// lanes with the canonical NaN. VBLENDVPS reads only the top bit of its
// mask, so mag - minNorm selects the below-normal lanes directly.
#define FPROUND(X, T1, T2, T3) \
	VPAND     FPR_ABS(DI), X, T1;      \
	VPSRLD    FPR_SHIFT(DI), T1, T2;   \
	VPAND     FPR_LSB(DI), T2, T2;     \
	VPADDD    T1, T2, T2;              \
	VPADDD    FPR_HALF(DI), T2, T2;    \
	VPAND     FPR_KEEP(DI), T2, T2;    \
	VPMINUD   FPR_MAX(DI), T2, T2;     \
	VADDPS    FPR_MAGIC(DI), T1, T3;   \
	VSUBPS    FPR_MAGIC(DI), T3, T3;   \
	VPSUBD    FPR_MINNORM(DI), T1, T1; \
	VBLENDVPS T1, T3, T2, T3;          \
	VPAND     FPR_SIGN(DI), X, T2;     \
	VPOR      T2, T3, T3;              \
	VCMPPS    $3, X, X, X;             \
	VBLENDVPS X, FPR_NAN(DI), T3, X

// func fpRoundAVX2(data *float32, n int, r *FPRound)
TEXT ·fpRoundAVX2(SB), NOSPLIT, $0-24
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ r+16(FP), DI

round16:
	CMPQ    CX, $16
	JLT     round8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y4
	FPROUND(Y0, Y1, Y2, Y3)
	FPROUND(Y4, Y5, Y6, Y7)
	VMOVUPS Y0, (SI)
	VMOVUPS Y4, 32(SI)
	ADDQ    $64, SI
	SUBQ    $16, CX
	JMP     round16

round8:
	CMPQ    CX, $8
	JLT     roundtail
	VMOVUPS (SI), Y0
	FPROUND(Y0, Y1, Y2, Y3)
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX

roundtail:
	TESTQ      CX, CX
	JZ         rounddone
	LEAQ       tailmask<>(SB), BX
	ADDQ       $32, BX
	SHLQ       $2, CX
	SUBQ       CX, BX
	VMOVDQU    (BX), Y4
	VMASKMOVPS (SI), Y4, Y0
	FPROUND(Y0, Y1, Y2, Y3)
	VMASKMOVPS Y0, Y4, (SI)

rounddone:
	VZEROUPPER
	RET

// ASTEP16 is one accumulator step of a 16-wide row: C0:C1 become the
// rounded c = (b*a) + c, in the plain kernel's operand order, except where
// A[row][p] is ±0, which leaves them untouched, unrounded too. Y10 holds
// the broadcast A value and then its zero mask.
#define ASTEP16(A, C0, C1) \
	VBROADCASTSS (A)(CX*4), Y10;         \
	VMULPS       Y10, Y8, Y11;           \
	VADDPS       C0, Y11, Y11;           \
	VMULPS       Y10, Y9, Y12;           \
	VADDPS       C1, Y12, Y12;           \
	VPSLLD       $1, Y10, Y10;           \
	VPCMPEQD     FPR_ZERO(DI), Y10, Y10; \
	FPROUND(Y11, Y13, Y14, Y15);         \
	VBLENDVPS    Y10, C0, Y11, C0;       \
	FPROUND(Y12, Y13, Y14, Y15);         \
	VBLENDVPS    Y10, C1, Y12, C1

#define ASTEP8(A, C0) \
	VBROADCASTSS (A)(CX*4), Y10;         \
	VMULPS       Y10, Y8, Y11;           \
	VADDPS       C0, Y11, Y11;           \
	VPSLLD       $1, Y10, Y10;           \
	VPCMPEQD     FPR_ZERO(DI), Y10, Y10; \
	FPROUND(Y11, Y13, Y14, Y15);         \
	VBLENDVPS    Y10, C0, Y11, C0

// Register use in gemmAccumAVX2 follows gemmBlockAVX2's, except:
//
//	R11              steps, the reduction steps of this call
//	R12              lda*4, the row stride of A in bytes
//	DI               the FPRound
//	Y9               8-wide: the column mask
//	Y10              broadcast A[i][p], then the mask set where it is ±0
//	Y11, Y12         the updated sums of the row's two vectors
//	Y13-Y15          rounding temporaries

// func gemmAccumAVX2(c, a, b *float32, rows, steps, lda, n int, r *FPRound)
TEXT ·gemmAccumAVX2(SB), NOSPLIT, $32-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ rows+24(FP), AX
	MOVQ steps+32(FP), R11
	MOVQ lda+40(FP), R12
	SHLQ $2, R12
	MOVQ n+48(FP), R13
	SHLQ $2, R13

	// Row pointers of A (R8-R10) and C (frame), as in gemmBlockAVX2.
	MOVQ DI, c0-32(SP)
	MOVQ SI, R8
	MOVQ DI, BX
	CMPQ AX, $1
	JLE  arow1
	ADDQ R12, R8
	ADDQ R13, BX

arow1:
	MOVQ BX, c1-24(SP)
	MOVQ R8, R9
	CMPQ AX, $2
	JLE  arow2
	ADDQ R12, R9
	ADDQ R13, BX

arow2:
	MOVQ BX, c2-16(SP)
	MOVQ R9, R10
	CMPQ AX, $3
	JLE  arow3
	ADDQ R12, R10
	ADDQ R13, BX

arow3:
	MOVQ BX, c3-8(SP)
	MOVQ r+56(FP), DI
	XORQ R14, R14

acc16:
	LEAQ 64(R14), AX
	CMPQ AX, R13
	JGT  acc8
	LOADC16
	LEAQ (DX)(R14*1), BX
	XORQ CX, CX
	PCALIGN $64

acc16loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	ASTEP16(SI, Y0, Y1)
	ASTEP16(R8, Y2, Y3)
	ASTEP16(R9, Y4, Y5)
	ASTEP16(R10, Y6, Y7)
	ADDQ    R13, BX
	INCQ    CX
	CMPQ    CX, R11
	JLT     acc16loop
	STOREC16
	ADDQ    $64, R14
	JMP     acc16

acc8:
	CMPQ R14, R13
	JGE  accdone
	TAILMASK(Y9)
	LOADC8(Y9)
	LEAQ (DX)(R14*1), BX
	XORQ CX, CX
	PCALIGN $64

acc8loop:
	VMASKMOVPS (BX), Y9, Y8
	ASTEP8(SI, Y0)
	ASTEP8(R8, Y2)
	ASTEP8(R9, Y4)
	ASTEP8(R10, Y6)
	ADDQ       R13, BX
	INCQ       CX
	CMPQ       CX, R11
	JLT        acc8loop
	STOREC8(Y9)
	ADDQ       $32, R14
	JMP        acc8

accdone:
	VZEROUPPER
	RET
