// AVX2 kernel of the same-shape and one-element arithmetic runs of Add, Sub,
// Mul and Div. Each YMM lane does the Go loop's one IEEE operation on one
// element, with a as the first source (the operand written just before the
// destination), so a result keeps its bits, NaN payloads included. No FMA.

#include "textflag.h"

// The elemOp values of the four operations (math.go).
#define OP_ADD 1
#define OP_SUB 2
#define OP_MUL 3
#define OP_DIV 4

// STEP advances out (DI) by N elements, and a (SI) and b (DX) by N each
// where A and B are 1: a repeated operand stays put.
#define STEP(N, A, B)           \
	ADDQ $(N*8), DI;        \
	ADDQ $(A*N*8), SI;      \
	ADDQ $(B*N*8), DX

// BOTH is out[i] = a[i] op b[i]: eight elements a pass, then four, then one
// at a time. REPA and REPB are the same with one operand repeated.
#define BOTH(VOP, SOP, L8, L4, L1) \
L8:                             \
	CMPQ    CX, $8;         \
	JLT     L4;             \
	VMOVUPD (SI), Y0;       \
	VMOVUPD 32(SI), Y1;     \
	VOP     (DX), Y0, Y0;   \
	VOP     32(DX), Y1, Y1; \
	VMOVUPD Y0, (DI);       \
	VMOVUPD Y1, 32(DI);     \
	STEP(8, 1, 1);          \
	SUBQ    $8, CX;         \
	JMP     L8;             \
L4:                             \
	CMPQ    CX, $4;         \
	JLT     L1;             \
	VMOVUPD (SI), Y0;       \
	VOP     (DX), Y0, Y0;   \
	VMOVUPD Y0, (DI);       \
	STEP(4, 1, 1);          \
	SUBQ    $4, CX;         \
L1:                             \
	TESTQ   CX, CX;         \
	JEQ     done;           \
	VMOVSD  (SI), X0;       \
	SOP     (DX), X0, X0;   \
	VMOVSD  X0, (DI);       \
	STEP(1, 1, 1);          \
	DECQ    CX;             \
	JMP     L1

// REPA is out[i] = a[0] op b[i], a[0] in every lane of Y4.
#define REPA(VOP, SOP, L8, L4, L1) \
L8:                             \
	CMPQ    CX, $8;         \
	JLT     L4;             \
	VOP     (DX), Y4, Y0;   \
	VOP     32(DX), Y4, Y1; \
	VMOVUPD Y0, (DI);       \
	VMOVUPD Y1, 32(DI);     \
	STEP(8, 0, 1);          \
	SUBQ    $8, CX;         \
	JMP     L8;             \
L4:                             \
	CMPQ    CX, $4;         \
	JLT     L1;             \
	VOP     (DX), Y4, Y0;   \
	VMOVUPD Y0, (DI);       \
	STEP(4, 0, 1);          \
	SUBQ    $4, CX;         \
L1:                             \
	TESTQ   CX, CX;         \
	JEQ     done;           \
	SOP     (DX), X4, X0;   \
	VMOVSD  X0, (DI);       \
	STEP(1, 0, 1);          \
	DECQ    CX;             \
	JMP     L1

// REPB is out[i] = a[i] op b[0], b[0] in every lane of Y4.
#define REPB(VOP, SOP, L8, L4, L1) \
L8:                             \
	CMPQ    CX, $8;         \
	JLT     L4;             \
	VMOVUPD (SI), Y0;       \
	VMOVUPD 32(SI), Y1;     \
	VOP     Y4, Y0, Y0;     \
	VOP     Y4, Y1, Y1;     \
	VMOVUPD Y0, (DI);       \
	VMOVUPD Y1, 32(DI);     \
	STEP(8, 1, 0);          \
	SUBQ    $8, CX;         \
	JMP     L8;             \
L4:                             \
	CMPQ    CX, $4;         \
	JLT     L1;             \
	VMOVUPD (SI), Y0;       \
	VOP     Y4, Y0, Y0;     \
	VMOVUPD Y0, (DI);       \
	STEP(4, 1, 0);          \
	SUBQ    $4, CX;         \
L1:                             \
	TESTQ   CX, CX;         \
	JEQ     done;           \
	VMOVSD  (SI), X0;       \
	SOP     X4, X0, X0;     \
	VMOVSD  X0, (DI);       \
	STEP(1, 1, 0);          \
	DECQ    CX;             \
	JMP     L1

// PICK jumps to the loop of op (AX) among four labels.
#define PICK(ADD, SUB, MUL, DIV) \
	CMPQ AX, $OP_ADD;       \
	JEQ  ADD;               \
	CMPQ AX, $OP_SUB;       \
	JEQ  SUB;               \
	CMPQ AX, $OP_MUL;       \
	JEQ  MUL;               \
	JMP  DIV

// func binaryRunAVX2(op int, out, a, b *float64, n, ia, ib int)
// n elements of out = a op b, op one of Add, Sub, Mul, Div. An operand whose
// stride (ia, ib) is 0 is the one element it points at, repeated; a is
// repeated when both are.
TEXT ·binaryRunAVX2(SB), NOSPLIT, $0-56
	MOVQ op+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ n+32(FP), CX
	CMPQ ia+40(FP), $0
	JEQ  repa
	CMPQ ib+48(FP), $0
	JEQ  repb
	PICK(addboth, subboth, mulboth, divboth)

repa:
	VBROADCASTSD (SI), Y4
	PICK(addrepa, subrepa, mulrepa, divrepa)

repb:
	VBROADCASTSD (DX), Y4
	PICK(addrepb, subrepb, mulrepb, divrepb)

	BOTH(VADDPD, VADDSD, addboth, addboth4, addboth1)
	BOTH(VSUBPD, VSUBSD, subboth, subboth4, subboth1)
	BOTH(VMULPD, VMULSD, mulboth, mulboth4, mulboth1)
	BOTH(VDIVPD, VDIVSD, divboth, divboth4, divboth1)
	REPA(VADDPD, VADDSD, addrepa, addrepa4, addrepa1)
	REPA(VSUBPD, VSUBSD, subrepa, subrepa4, subrepa1)
	REPA(VMULPD, VMULSD, mulrepa, mulrepa4, mulrepa1)
	REPA(VDIVPD, VDIVSD, divrepa, divrepa4, divrepa1)
	REPB(VADDPD, VADDSD, addrepb, addrepb4, addrepb1)
	REPB(VSUBPD, VSUBSD, subrepb, subrepb4, subrepb1)
	REPB(VMULPD, VMULSD, mulrepb, mulrepb4, mulrepb1)
	REPB(VDIVPD, VDIVSD, divrepb, divrepb4, divrepb1)

done:
	VZEROUPPER
	RET
