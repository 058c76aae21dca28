#include "textflag.h"

// The AVX2 form of the four kernels defined in kernel.go. Every lane does
// the operations of the Go definition in the same order, a VMULPD then a
// VADDPD and never a fused multiply-add (which rounds once where Go rounds
// twice), so both forms return the same bits. Each routine takes all its
// lengths from its slice arguments, ends in VZEROUPPER (Go's own float
// code is SSE) and leaves BP, R14, R15 and X15 alone.

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// MATVEC4 adds rows 0..3 (at R10..R13, scaled by Y0..Y3) into the z vector
// acc at byte offset off of column AX, through the scratch register tmp.
#define MATVEC4(off, acc, tmp) \
	VMOVUPD off(DI)(AX*8), acc; \
	VMULPD  off(R10)(AX*8), Y0, tmp; \
	VADDPD  tmp, acc, acc; \
	VMULPD  off(R11)(AX*8), Y1, tmp; \
	VADDPD  tmp, acc, acc; \
	VMULPD  off(R12)(AX*8), Y2, tmp; \
	VADDPD  tmp, acc, acc; \
	VMULPD  off(R13)(AX*8), Y3, tmp; \
	VADDPD  tmp, acc, acc; \
	VMOVUPD acc, off(DI)(AX*8)

// func matvecAVX2(z, x, w []float64)
// Four rows of w per pass over z, eight then four columns per step.
TEXT ·matvecAVX2(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), DX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ w_base+48(FP), R10
	SHRQ $2, CX               // CX: blocks of four rows left
	JZ   matvec_done
	MOVQ DX, R8
	SHLQ $3, R8               // R8: bytes per row of w
	ANDQ $~3, DX              // DX: columns taken here
	JZ   matvec_done
	MOVQ DX, R9
	ANDQ $~7, R9              // R9: columns taken eight at a time

matvec_rows:
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	XORQ AX, AX               // AX: column
	CMPQ AX, R9
	JGE  matvec_cols4

matvec_cols8:
	MATVEC4(0, Y4, Y6)
	MATVEC4(32, Y5, Y7)
	ADDQ $8, AX
	CMPQ AX, R9
	JLT  matvec_cols8

matvec_cols4:
	CMPQ AX, DX
	JGE  matvec_next
	MATVEC4(0, Y4, Y6)

matvec_next:
	ADDQ $32, SI
	LEAQ (R13)(R8*1), R10
	DECQ CX
	JNZ  matvec_rows

matvec_done:
	VZEROUPPER
	RET

// func axpyAVX2(z, row []float64, a float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), DX
	MOVQ row_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	ANDQ $~3, DX
	MOVQ DX, R9
	ANDQ $~7, R9
	XORQ AX, AX
	CMPQ AX, R9
	JGE  axpy_cols4

axpy_cols8:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLT     axpy_cols8

axpy_cols4:
	CMPQ    AX, DX
	JGE     axpy_done
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)

axpy_done:
	VZEROUPPER
	RET

// Constants, four lanes wide so that an instruction can take them from
// memory. The bit patterns are those of the Go constants in kernel.go.
#define CONST4(name, bits) \
	DATA  name<>+0(SB)/8, $bits; \
	DATA  name<>+8(SB)/8, $bits; \
	DATA  name<>+16(SB)/8, $bits; \
	DATA  name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(one, 0x3ff0000000000000)
CONST4(two, 0x4000000000000000)
CONST4(expClampHi, 0x4086200000000000) // 708
CONST4(expClampLo, 0xc086200000000000) // -708
CONST4(expLog2e, 0x3ff71547652b82fe)
CONST4(expRound, 0x4338000000000000)   // 1.5·2⁵²
CONST4(expLn2Hi, 0x3fe62e4000000000)
CONST4(expLn2Lo, 0x3eb7f7d1cf79abca)
CONST4(expP0, 0x3f2089cdd5e44be8)
CONST4(expP1, 0x3f9f06d10cca2c7e)
CONST4(expQ0, 0x3ec92eb6bc365fa0)
CONST4(expQ1, 0x3f64ae39b508b6c0)
CONST4(expQ2, 0x3fcd17099887e074)

// func scoreExpAVX2(v, ea, eq []float64) float64
// Lane l of Y0 is the Go form's sum l; one divide per four terms.
TEXT ·scoreExpAVX2(SB), NOSPLIT, $0-80
	MOVQ    v_base+0(FP), DI
	MOVQ    ea_base+24(FP), SI
	MOVQ    ea_len+32(FP), DX
	MOVQ    eq_base+48(FP), R8
	VMOVUPD one<>(SB), Y14
	VMOVUPD two<>(SB), Y13
	VXORPD  Y0, Y0, Y0
	ANDQ    $~3, DX
	XORQ    AX, AX
	CMPQ    AX, DX
	JGE     score_sum

score_terms:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y1, Y1   // e^{2a}·e^{2q}
	VADDPD  Y14, Y1, Y1          // … + 1
	VDIVPD  Y1, Y13, Y1          // 2/…
	VSUBPD  Y1, Y14, Y1          // 1 − …
	VMULPD  (DI)(AX*8), Y1, Y1   // v·…
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     score_terms

score_sum:
	VHADDPD      Y0, Y0, Y0      // l0+l1 in the low half, l2+l3 in the high
	VEXTRACTF128 $1, Y0, X1
	VADDSD       X1, X0, X0      // (l0+l1)+(l2+l3)
	VMOVSD       X0, ret+72(FP)
	VZEROUPPER
	RET

// func expvAVX2(xs []float64)
// exp1 of kernel.go on four lanes, operation for operation.
TEXT ·expvAVX2(SB), NOSPLIT, $0-24
	MOVQ    xs_base+0(FP), DI
	MOVQ    xs_len+8(FP), DX
	VMOVUPD expClampHi<>(SB), Y14
	VMOVUPD expClampLo<>(SB), Y13
	VMOVUPD expRound<>(SB), Y12
	VMOVUPD one<>(SB), Y11
	VMOVUPD two<>(SB), Y10
	ANDQ    $~3, DX
	XORQ    AX, AX
	CMPQ    AX, DX
	JGE     expv_done

expv_loop:
	VMOVUPD (DI)(AX*8), Y0

	// Clamp. VMINPD and VMAXPD return their second source (the first
	// operand as written here) when either is a NaN, so x goes there and a
	// NaN survives.
	VMINPD Y0, Y14, Y0
	VMAXPD Y0, Y13, Y0

	// t = x·log₂e + 1.5·2⁵², k = t − 1.5·2⁵²
	VMULPD expLog2e<>(SB), Y0, Y1
	VADDPD Y12, Y1, Y1           // Y1: t
	VSUBPD Y12, Y1, Y2           // Y2: k

	// r = x − k·ln2hi − k·ln2lo
	VMULPD expLn2Hi<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD expLn2Lo<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0            // Y0: r
	VMULPD Y0, Y0, Y2            // Y2: s = r²

	// p = ((P0·s + P1)·s + 1)·r
	VMULPD expP0<>(SB), Y2, Y3
	VADDPD expP1<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD Y11, Y3, Y3
	VMULPD Y0, Y3, Y3            // Y3: p

	// q = ((Q0·s + Q1)·s + Q2)·s + 2
	VMULPD expQ0<>(SB), Y2, Y4
	VADDPD expQ1<>(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD expQ2<>(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD Y10, Y4, Y4           // Y4: q

	// e = p/(q − p), m = 1 + (e + e)
	VSUBPD Y3, Y4, Y4
	VDIVPD Y4, Y3, Y3
	VADDPD Y3, Y3, Y3
	VADDPD Y3, Y11, Y3           // Y3: m

	// 2ᵏ from t's low bits, then m·2ᵏ
	VPSLLQ $52, Y1, Y1
	VPADDQ one<>(SB), Y1, Y1     // the bits of 1.0 are 0x3FF<<52
	VMULPD Y1, Y3, Y3

	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     expv_loop

expv_done:
	VZEROUPPER
	RET
