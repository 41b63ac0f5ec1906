// AVX2+FMA kernels of Sigmoid and Tanh. Each YMM lane computes one element
// exactly as the Go loop's function does, operation for operation:
//
//   - exp, the step both share, is math.Exp on amd64, the FMA path of
//     $GOROOT/src/math/exp_amd64.s (the one math takes on every CPU these
//     kernels are selected on): the same range reduction, VCVTPD2DQ rounding
//     and Horner order, the same four doubling steps and the same final 2^k
//     scale. That file credits the method to N. Shibata, "Efficient
//     evaluation methods of elementary functions suitable for SIMD
//     computation", ISC 2010.
//   - Sigmoid is sigFn, 1 / (1 + exp(-x)).
//   - Tanh is $GOROOT/src/math/tanh.go: both of its branches are computed and
//     blended at |x| ≥ 0.625, and x == 0 returns x, keeping the sign of zero.
//
// Nothing here handles what archExp handles off its main path. A block of
// four elements with any lane that would leave it (a non-finite input,
// x > 7.09782712893384e+02, an exponent outside the normal range: denormal
// results and underflow; EXPCHECK says why one test finds them all) or, for
// Tanh, a NaN or |x| > 0.5·MAXLOG is stored by nobody here: the kernel
// returns how far it got and the Go loop computes that block.

#include "go_asm.h"
#include "textflag.h"

// tc holds each constant in the four lanes of a 32-byte row.
#define C4(row, v) \
	DATA tc<>+(row*32)(SB)/8, v;    \
	DATA tc<>+(row*32+8)(SB)/8, v;  \
	DATA tc<>+(row*32+16)(SB)/8, v; \
	DATA tc<>+(row*32+24)(SB)/8, v
#define ROW(row) tc<>+((row)*32)(SB)

C4(0, $1.4426950408889634073599246810018920)                  // LOG2E
C4(1, $0.69314718055966295651160180568695068359375)           // LN2U
C4(2, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
C4(3, $0.0625)
C4(4, $2.4801587301587301587e-5)                              // exprodata, highest degree first
C4(5, $1.9841269841269841270e-4)
C4(6, $1.3888888888888888889e-3)
C4(7, $8.3333333333333333333e-3)
C4(8, $4.1666666666666666667e-2)
C4(9, $1.6666666666666666667e-1)
C4(10, $0.5)
C4(11, $1.0)
C4(12, $2.0)
C4(13, $0x8000000000000000)                                   // the sign bit
C4(14, $0x7fffffffffffffff)                                   // all but the sign bit
C4(15, $4.4014845965556527147994e+01)                         // 0.5·MAXLOG
C4(16, $0.625)
C4(17, $-9.64399179425052238628e-1)                           // tanhP
C4(18, $-9.92877231001918586564e1)
C4(19, $-1.61468768441708447952e3)
C4(20, $1.12811678491632931402e2)                             // tanhQ
C4(21, $2.23548839060100448583e3)
C4(22, $4.84406305325125486048e3)
C4(23, $0x000003ff000003ff)                                   // 1023, the exponent bias, as dwords
C4(24, $0x000007ff000007ff)                                   // 2047
GLOBL tc<>(SB), RODATA, $800

#define LOG2E ROW(0)
#define LN2U ROW(1)
#define LN2L ROW(2)
#define SIXTEENTH ROW(3)
#define E(i) ROW(4+i)
#define ONE ROW(11)
#define TWO ROW(12)
#define SIGN ROW(13)
#define ABS ROW(14)
#define HALFMAXLOG ROW(15)
#define SMALL ROW(16)
#define P(i) ROW(17+i)
#define Q(i) ROW(20+i)
#define BIAS ROW(23)
#define MAXEXP ROW(24)

// VCMPPD predicates.
#define EQ_OQ 0x00
#define NLE_UQ 0x16
#define GE_OQ 0x1d

// EXPK rounds x·LOG2E (x in Y0) to k, as CVTSD2SL does, and sets X3 to k + 1023.
#define EXPK \
	VMULPD     LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2;        \
	VPADDD     BIAS, X2, X3

// EXPCHECK jumps to FAIL unless every lane is on archExp's main path, which
// is exactly 0 < k + 1023 < 2047: a NaN or an infinity converts to the
// integer indefinite 0x80000000, and x > Overflow (7.09782712893384e+02,
// 1024·ln 2) rounds to k ≥ 1024; k + 1023 ≤ 0 is a denormal result or
// underflow. Clobbers X4–X6 and DX.
#define EXPCHECK(FAIL) \
	VPXOR     X4, X4, X4;                \
	VPCMPGTD  X4, X3, X5;                \
	VMOVDQU   MAXEXP, X6;                \
	VPCMPGTD  X3, X6, X6;                \
	VPAND     X5, X6, X6;                \
	VMOVMSKPS X6, DX;                    \
	CMPL      DX, $15;                   \
	JNE       FAIL

// EXPTAIL finishes Y0 = exp(Y0) from EXPK's k (X2) and k + 1023 (X3).
#define EXPTAIL \
	VCVTDQ2PD    X2, Y1;           \
	VFNMADD231PD LN2U, Y1, Y0;     \
	VFNMADD231PD LN2L, Y1, Y0;     \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      E(0), Y1;         \
	VFMADD213PD  E(1), Y0, Y1;     \
	VFMADD213PD  E(2), Y0, Y1;     \
	VFMADD213PD  E(3), Y0, Y1;     \
	VFMADD213PD  E(4), Y0, Y1;     \
	VFMADD213PD  E(5), Y0, Y1;     \
	VFMADD213PD  E(6), Y0, Y1;     \
	VFMADD213PD  E(7), Y0, Y1;     \
	VMULPD       Y1, Y0, Y0;       \
	VADDPD       TWO, Y0, Y1;      \
	VMULPD       Y1, Y0, Y0;       \
	VADDPD       TWO, Y0, Y1;      \
	VMULPD       Y1, Y0, Y0;       \
	VADDPD       TWO, Y0, Y1;      \
	VMULPD       Y1, Y0, Y0;       \
	VADDPD       TWO, Y0, Y1;      \
	VFMADD213PD  ONE, Y1, Y0;      \
	VPMOVZXDQ    X3, Y1;           \
	VPSLLQ       $52, Y1, Y1;      \
	VMULPD       Y1, Y0, Y0

// func transcRunAVX2(op int, out, in *float64, n int) int
// out[i] = op(in[i]) for i < n, n a multiple of 4, op opSigmoid or opTanh
// (any other op writes nothing), out and in the same or disjoint. It stops
// before the first block of four that has a lane off the fast path and
// returns how many elements it wrote.
TEXT ·transcRunAVX2(SB), NOSPLIT, $0-40
	MOVQ op+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ in+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ BX, BX
	CMPQ AX, $const_opSigmoid
	JEQ  sigmoid
	CMPQ AX, $const_opTanh
	JNE  done

tanh:
	CMPQ      BX, CX
	JGE       done
	VMOVUPD   (SI)(BX*8), Y8
	VANDPD    ABS, Y8, Y7                   // z = |x|
	VCMPPD    $NLE_UQ, HALFMAXLOG, Y7, Y4   // NaN, or z > 0.5·MAXLOG
	VMOVMSKPD Y4, DX
	TESTL     DX, DX
	JNE       done

	// z ≥ 0.625: s = exp(2z), 1 - 2/(s+1), negated where x < 0. 2z ≤ MAXLOG
	// is always on archExp's main path.
	VADDPD  Y7, Y7, Y0
	EXPK
	EXPTAIL
	VADDPD  ONE, Y0, Y0
	VMOVUPD TWO, Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD ONE, Y1
	VSUBPD  Y0, Y1, Y9
	VANDPD  SIGN, Y8, Y1
	VORPD   Y1, Y9, Y9

	// z < 0.625: s = x·x, x + x·s·P(s)/Q(s).
	VMULPD Y8, Y8, Y1
	VMULPD P(0), Y1, Y2
	VADDPD P(1), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD P(2), Y2, Y2
	VADDPD Q(0), Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD Q(1), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD Q(2), Y3, Y3
	VMULPD Y1, Y8, Y4
	VMULPD Y2, Y4, Y4
	VDIVPD Y3, Y4, Y4
	VADDPD Y4, Y8, Y4

	VCMPPD    $GE_OQ, SMALL, Y7, Y5
	VBLENDVPD Y5, Y9, Y4, Y4
	VXORPD    Y6, Y6, Y6
	VCMPPD    $EQ_OQ, Y6, Y8, Y5
	VBLENDVPD Y5, Y8, Y4, Y4                // x == 0: x
	VMOVUPD   Y4, (DI)(BX*8)
	ADDQ      $4, BX
	JMP       tanh

sigmoid:
	CMPQ    BX, CX
	JGE     done
	VMOVUPD (SI)(BX*8), Y0
	VXORPD  SIGN, Y0, Y0                    // -x
	EXPK
	EXPCHECK(done)
	EXPTAIL
	VADDPD  ONE, Y0, Y0
	VMOVUPD ONE, Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     sigmoid

done:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET
