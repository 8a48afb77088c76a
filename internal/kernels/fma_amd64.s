//go:build amd64

#include "textflag.h"

// func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// tailMask<>[8-n : 16-n] selects the first n lanes of an 8-column tile
// (two YMM halves) for the masked write-back of a partial last panel.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
DATA tailMask<>+64(SB)/8, $0
DATA tailMask<>+72(SB)/8, $0
DATA tailMask<>+80(SB)/8, $0
DATA tailMask<>+88(SB)/8, $0
DATA tailMask<>+96(SB)/8, $0
DATA tailMask<>+104(SB)/8, $0
DATA tailMask<>+112(SB)/8, $0
DATA tailMask<>+120(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// One k step of the 4×8 outer product: two packed B vectors (panel
// columns 0–3 and 4–7 at bp offset boff), one broadcast A entry per row
// (row end pointers R8–R11, element offset aoff from AX·8), eight FMAs.
#define STEP(boff, aoff) \
	VMOVUPD      boff(R12), Y8           \
	VMOVUPD      boff+32(R12), Y9        \
	VBROADCASTSD aoff(R8)(AX*8), Y10     \
	VFMADD231PD  Y8, Y10, Y0             \
	VFMADD231PD  Y9, Y10, Y1             \
	VBROADCASTSD aoff(R9)(AX*8), Y11     \
	VFMADD231PD  Y8, Y11, Y2             \
	VFMADD231PD  Y9, Y11, Y3             \
	VBROADCASTSD aoff(R10)(AX*8), Y10    \
	VFMADD231PD  Y8, Y10, Y4             \
	VFMADD231PD  Y9, Y10, Y5             \
	VBROADCASTSD aoff(R11)(AX*8), Y11    \
	VFMADD231PD  Y8, Y11, Y6             \
	VFMADD231PD  Y9, Y11, Y7

// C row ← C row − accumulators lo/hi: eight columns at (reg)(DI*1).
#define SUBROW(reg, lo, hi) \
	VMOVUPD (reg)(DI*1), Y8       \
	VSUBPD  lo, Y8, Y8            \
	VMOVUPD Y8, (reg)(DI*1)       \
	VMOVUPD 32(reg)(DI*1), Y9     \
	VSUBPD  hi, Y9, Y9            \
	VMOVUPD Y9, 32(reg)(DI*1)

// The same under the lane masks Y14 (columns 0–3) and Y15 (4–7).
#define SUBROWMASK(reg, lo, hi) \
	VMASKMOVPD (reg)(DI*1), Y14, Y8     \
	VSUBPD     lo, Y8, Y8               \
	VMASKMOVPD Y8, Y14, (reg)(DI*1)     \
	VMASKMOVPD 32(reg)(DI*1), Y15, Y9   \
	VSUBPD     hi, Y9, Y9               \
	VMASKMOVPD Y9, Y15, 32(reg)(DI*1)

// DX ← address of C row i: c + rows[i]·8 (R13 = rows).
#define ROWADDR(i) \
	MOVQ c+0(FP), DX         \
	MOVQ i*8(R13), AX        \
	LEAQ (DX)(AX*8), DX

// func mulSubStripFMA(c *float64, rows *[4]int, a *float64, lda, mr int, bp *float64, w, ncols int)
//
// C row i, column j (at c[rows[i] + j]) −= Σₖ A[i][k]·Bp(j, k) for rows
// i < mr (1 ≤ mr ≤ 4) and columns j < ncols, where Bp holds ncols columns
// packed into k-major 8-wide panels (panel p, step k, lane l at
// bp[(p·w + k)·8 + l]). Each panel's 4×8 block of C lives in Y0–Y7 for
// the whole k loop (two k per iteration); rows at or beyond mr re-read
// row 0 of A and are never stored. A full panel is subtracted with plain
// vector stores, a partial last panel (ncols mod 8 columns) with masked
// loads and stores, so nothing outside the mr destination rows' first
// ncols entries is read or written.
TEXT ·mulSubStripFMA(SB), NOSPLIT, $0-64
	MOVQ a+16(FP), R8
	MOVQ lda+24(FP), AX
	SHLQ $3, AX
	MOVQ mr+32(FP), SI
	MOVQ w+48(FP), CX

	// Row pointers, aliased to row 0 beyond mr.
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ SI, $2
	JLT  rowsdone
	LEAQ (R8)(AX*1), R9
	CMPQ SI, $3
	JLT  rowsdone
	LEAQ (R9)(AX*1), R10
	CMPQ SI, $4
	JLT  rowsdone
	LEAQ (R10)(AX*1), R11

rowsdone:
	// Point each row one past its w-th element so a single index
	// register AX, running from 2−w up to 0, addresses every row.
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	LEAQ (R10)(CX*8), R10
	LEAQ (R11)(CX*8), R11

	MOVQ rows+8(FP), R13
	XORQ DI, DI // byte offset of the current panel's first column
	MOVQ bp+40(FP), R12
	MOVQ ncols+56(FP), BX

panel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ $2, AX
	SUBQ CX, AX
	JG   ktail

kloop:
	STEP(0, -16)
	STEP(64, -8)
	ADDQ $128, R12
	ADDQ $2, AX
	JLE  kloop

ktail:
	// AX = 1: one k step left, element w−1 at −16 + 8 past the row end.
	CMPQ AX, $1
	JNE  store
	STEP(0, -16)
	ADDQ $64, R12

store:
	CMPQ BX, $8
	JLT  partial
	ROWADDR(0)
	SUBROW(DX, Y0, Y1)
	CMPQ SI, $2
	JLT  next
	ROWADDR(1)
	SUBROW(DX, Y2, Y3)
	CMPQ SI, $3
	JLT  next
	ROWADDR(2)
	SUBROW(DX, Y4, Y5)
	CMPQ SI, $4
	JLT  next
	ROWADDR(3)
	SUBROW(DX, Y6, Y7)

next:
	ADDQ $64, DI
	SUBQ $8, BX
	JG   panel
	VZEROUPPER
	RET

partial:
	// 1 ≤ BX ≤ 7 columns: masks tailMask<>[8−BX : 16−BX].
	MOVQ $8, AX
	SUBQ BX, AX
	LEAQ tailMask<>(SB), DX
	VMOVUPD (DX)(AX*8), Y14
	VMOVUPD 32(DX)(AX*8), Y15
	ROWADDR(0)
	SUBROWMASK(DX, Y0, Y1)
	CMPQ SI, $2
	JLT  done
	ROWADDR(1)
	SUBROWMASK(DX, Y2, Y3)
	CMPQ SI, $3
	JLT  done
	ROWADDR(2)
	SUBROWMASK(DX, Y4, Y5)
	CMPQ SI, $4
	JLT  done
	ROWADDR(3)
	SUBROWMASK(DX, Y6, Y7)

done:
	VZEROUPPER
	RET

// Transpose the 4×4 block of doubles in Y0–Y3 (rows) and store its four
// columns 64 bytes apart starting at off(DI).
#define TRANSPOSE4(off) \
	VUNPCKLPD  Y1, Y0, Y8               \
	VUNPCKHPD  Y1, Y0, Y9               \
	VUNPCKLPD  Y3, Y2, Y10              \
	VUNPCKHPD  Y3, Y2, Y11              \
	VPERM2F128 $0x20, Y10, Y8, Y12      \
	VPERM2F128 $0x20, Y11, Y9, Y13      \
	VPERM2F128 $0x31, Y10, Y8, Y14      \
	VPERM2F128 $0x31, Y11, Y9, Y15      \
	VMOVUPD    Y12, off(DI)             \
	VMOVUPD    Y13, off+64(DI)          \
	VMOVUPD    Y14, off+128(DI)         \
	VMOVUPD    Y15, off+192(DI)

// func packPanelAVX(dst *float64, src *float64, ldb, w int)
//
// Packs one full 8-row panel: dst[k·8 + l] = src[l·ldb + k] for l < 8 and
// k < w — an 8×w → w×8 transpose, four k per iteration as two 4×4 AVX
// transposes, the k remainder one element per row.
TEXT ·packPanelAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), R8
	MOVQ ldb+16(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	LEAQ (R8)(R10*4), R9
	MOVQ w+24(FP), CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   ptail

ploop:
	VMOVUPD (R8), Y0
	VMOVUPD (R8)(R10*1), Y1
	VMOVUPD (R8)(R10*2), Y2
	VMOVUPD (R8)(R11*1), Y3
	TRANSPOSE4(0)
	VMOVUPD (R9), Y0
	VMOVUPD (R9)(R10*1), Y1
	VMOVUPD (R9)(R10*2), Y2
	VMOVUPD (R9)(R11*1), Y3
	TRANSPOSE4(32)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $256, DI
	DECQ BX
	JNZ  ploop

ptail:
	ANDQ $3, CX
	JZ   pdone

ptailloop:
	VMOVSD (R8), X0
	VMOVSD X0, (DI)
	VMOVSD (R8)(R10*1), X0
	VMOVSD X0, 8(DI)
	VMOVSD (R8)(R10*2), X0
	VMOVSD X0, 16(DI)
	VMOVSD (R8)(R11*1), X0
	VMOVSD X0, 24(DI)
	VMOVSD (R9), X0
	VMOVSD X0, 32(DI)
	VMOVSD (R9)(R10*1), X0
	VMOVSD X0, 40(DI)
	VMOVSD (R9)(R10*2), X0
	VMOVSD X0, 48(DI)
	VMOVSD (R9)(R11*1), X0
	VMOVSD X0, 56(DI)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $64, DI
	DECQ CX
	JNZ  ptailloop

pdone:
	VZEROUPPER
	RET
