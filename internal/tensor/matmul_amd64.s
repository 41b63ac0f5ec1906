// AVX2 inner kernels of MatMulT. Each YMM lane is one output column and
// performs the scalar kernel's operations in the scalar kernel's order: one
// VMULPD, then one VADDPD whose first source (the operand written just before
// the destination) is the running sum, for p = 0, 1, … from +0. No FMA: a
// fused multiply-add rounds once where the Go kernels round twice.

#include "textflag.h"

// func cpuHasAVX2() bool
// AVX2 and FMA in CPUID, and the OS saving YMM state (OSXSAVE, XCR0 bits 1
// and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  nocpu
	MOVL $1, AX
	CPUID
	ANDL $(1<<12 | 1<<27 | 1<<28), CX // FMA, OSXSAVE, AVX
	CMPL CX, $(1<<12 | 1<<27 | 1<<28)
	JNE  nocpu
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX               // AVX2
	JCC  nocpu
	XORL CX, CX
	XGETBV
	ANDL $6, AX               // XMM and YMM state
	CMPL AX, $6
	JNE  nocpu
	MOVB $1, ret+0(FP)
nocpu:
	RET

// NNROW adds a(r,p)·b[p, j:j+8] (Y8, Y9) to row r's accumulators; R13 is the
// byte offset of a(r,p) from a(r,0).
#define NNROW(A, ACC0, ACC1) \
	VBROADCASTSD (A)(R13*1), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VADDPD       Y11, ACC0, ACC0; \
	VMULPD       Y9, Y10, Y11;    \
	VADDPD       Y11, ACC1, ACC1

// func nnRows4AVX2(o, a *[4]*float64, b *float64, k, n, ap int)
// Four rows of out = A·B for a row-major b[k,n], n ≥ 8, k ≥ 1: o[r] and a[r]
// point at row r of out and at a(r,0), and a(r,p+1) is ap elements after
// a(r,p). Tiles of 4 rows × 8 columns keep their sums in Y0–Y7 over all of k,
// so a load of b serves four rows; a last tile that would overrun n is moved
// back to end at n and recomputes the columns it overlaps, to the same bits.
TEXT ·nnRows4AVX2(SB), NOSPLIT, $0-48
	MOVQ a+8(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ b+16(FP), BX
	MOVQ n+32(FP), DX
	SHLQ $3, DX             // bytes in a row of b and of out
	MOVQ ap+40(FP), R12
	SHLQ $3, R12            // bytes from a(r,p) to a(r,p+1)
	XORQ SI, SI             // byte offset of the tile's first column in its row
nntile:
	LEAQ   (BX)(SI*1), DI   // &b[0,j]
	XORQ   R13, R13
	MOVQ   k+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
nnloop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	NNROW(R8, Y0, Y1)
	NNROW(R9, Y2, Y3)
	NNROW(R10, Y4, Y5)
	NNROW(R11, Y6, Y7)
	ADDQ    DX, DI
	ADDQ    R12, R13
	DECQ    CX
	JNZ     nnloop
	MOVQ    o+0(FP), AX
	MOVQ    0(AX), DI
	VMOVUPD Y0, (DI)(SI*1)
	VMOVUPD Y1, 32(DI)(SI*1)
	MOVQ    8(AX), DI
	VMOVUPD Y2, (DI)(SI*1)
	VMOVUPD Y3, 32(DI)(SI*1)
	MOVQ    16(AX), DI
	VMOVUPD Y4, (DI)(SI*1)
	VMOVUPD Y5, 32(DI)(SI*1)
	MOVQ    24(AX), DI
	VMOVUPD Y6, (DI)(SI*1)
	VMOVUPD Y7, 32(DI)(SI*1)
	ADDQ    $64, SI
	LEAQ    64(SI), AX
	CMPQ    AX, DX
	JLE     nntile          // another whole tile fits
	CMPQ    SI, DX
	JGE     nndone
	LEAQ    -64(DX), SI     // the last tile ends at n
	JMP     nntile
nndone:
	VZEROUPPER
	RET

// NTSTEP adds a(r,p)·T to row r's accumulator, T holding b[j:j+4, p]; R13 is
// the byte offset of the current block of p in a row of a and of b.
#define NTSTEP(OFF, A, T, ACC) \
	VBROADCASTSD OFF(A)(R13*1), Y12; \
	VMULPD       T, Y12, Y12;        \
	VADDPD       Y12, ACC, ACC

// func ntRows4AVX2(o, a *[4]*float64, b *float64, k, n int)
// Four rows of out = A·Bᵀ for row-major rows a[r] of length k and b[n,k],
// n ≥ 4, k ≥ 1. A tile is 4 rows × 4 columns with its sums in Y0–Y3. Four
// columns' operands are four rows of b, so each 4×4 block of b is transposed
// in registers (Y8, Y9, Y14, Y15 become b[j:j+4, p] … b[j:j+4, p+3]) and used
// by all four rows; the k mod 4 products left over gather one column at a time.
// Column tiles step and overlap at n as in nnRows4AVX2.
TEXT ·ntRows4AVX2(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ k+24(FP), DX
	SHLQ $3, DX             // bytes in a row of a and of b
	MOVQ DX, R12
	ANDQ $~31, R12          // of which whole blocks of four products
	MOVQ n+32(FP), R15
	SHLQ $3, R15            // bytes in a row of out
	XORQ SI, SI             // byte offset of the tile's first column in its row
nttile:
	MOVQ   SI, AX
	IMULQ  k+24(FP), AX
	ADDQ   b+16(FP), AX     // &b[j,0]
	LEAQ   (AX)(DX*1), BX   // &b[j+1,0]
	LEAQ   (AX)(DX*2), CX   // &b[j+2,0]
	LEAQ   (BX)(DX*2), DI   // &b[j+3,0]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   R13, R13
	JMP    ntblocks
ntblock:
	VMOVUPD    (AX)(R13*1), Y12
	VMOVUPD    (BX)(R13*1), Y13
	VMOVUPD    (CX)(R13*1), Y14
	VMOVUPD    (DI)(R13*1), Y15
	VUNPCKLPD  Y13, Y12, Y8  // b[j,p]   b[j+1,p]   b[j,p+2]   b[j+1,p+2]
	VUNPCKHPD  Y13, Y12, Y9  // b[j,p+1] b[j+1,p+1] b[j,p+3]   b[j+1,p+3]
	VUNPCKLPD  Y15, Y14, Y10 // b[j+2,p] b[j+3,p]   b[j+2,p+2] b[j+3,p+2]
	VUNPCKHPD  Y15, Y14, Y11
	VPERM2F128 $0x31, Y10, Y8, Y14
	VPERM2F128 $0x31, Y11, Y9, Y15
	VPERM2F128 $0x20, Y10, Y8, Y8
	VPERM2F128 $0x20, Y11, Y9, Y9
	NTSTEP(0, R8, Y8, Y0)
	NTSTEP(0, R9, Y8, Y1)
	NTSTEP(0, R10, Y8, Y2)
	NTSTEP(0, R11, Y8, Y3)
	NTSTEP(8, R8, Y9, Y0)
	NTSTEP(8, R9, Y9, Y1)
	NTSTEP(8, R10, Y9, Y2)
	NTSTEP(8, R11, Y9, Y3)
	NTSTEP(16, R8, Y14, Y0)
	NTSTEP(16, R9, Y14, Y1)
	NTSTEP(16, R10, Y14, Y2)
	NTSTEP(16, R11, Y14, Y3)
	NTSTEP(24, R8, Y15, Y0)
	NTSTEP(24, R9, Y15, Y1)
	NTSTEP(24, R10, Y15, Y2)
	NTSTEP(24, R11, Y15, Y3)
	ADDQ       $32, R13
ntblocks:
	CMPQ R13, R12
	JLT  ntblock
	JMP  nttails
nttail:
	VMOVSD      (AX)(R13*1), X8
	VMOVHPD     (BX)(R13*1), X8, X8
	VMOVSD      (CX)(R13*1), X9
	VMOVHPD     (DI)(R13*1), X9, X9
	VINSERTF128 $1, X9, Y8, Y8
	NTSTEP(0, R8, Y8, Y0)
	NTSTEP(0, R9, Y8, Y1)
	NTSTEP(0, R10, Y8, Y2)
	NTSTEP(0, R11, Y8, Y3)
	ADDQ        $8, R13
nttails:
	CMPQ    R13, DX
	JLT     nttail
	MOVQ    o+0(FP), AX
	MOVQ    0(AX), DI
	VMOVUPD Y0, (DI)(SI*1)
	MOVQ    8(AX), DI
	VMOVUPD Y1, (DI)(SI*1)
	MOVQ    16(AX), DI
	VMOVUPD Y2, (DI)(SI*1)
	MOVQ    24(AX), DI
	VMOVUPD Y3, (DI)(SI*1)
	ADDQ    $32, SI
	LEAQ    32(SI), AX
	CMPQ    AX, R15
	JLE     nttile
	CMPQ    SI, R15
	JGE     ntdone
	LEAQ    -32(R15), SI
	JMP     nttile
ntdone:
	VZEROUPPER
	RET
