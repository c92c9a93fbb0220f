#include "textflag.h"

// AVX2 kernels. The algorithm matches sqBlocksScalar exactly: one YMM
// accumulator whose four lanes hold (a0,a1,a2,a3); each 8-point block adds
// two 4-wide chunks, then the abandon check horizontally sums the lanes as
// (a0+a2)+(a1+a3) and compares against the limit. VMULPD+VADDPD are used
// instead of FMA on purpose — FMA skips the intermediate rounding of d*d
// and would break bit-equality with the scalar reference.

// func sqBlocksBytesAVX2(q *float64, t unsafe.Pointer, nb int64, limit float64, acc *[4]float64) int64
TEXT ·sqBlocksBytesAVX2(SB), NOSPLIT, $0-48
	MOVQ  q+0(FP), SI
	MOVQ  t+8(FP), DI
	MOVQ  nb+16(FP), CX
	VMOVSD limit+24(FP), X5
	MOVQ  acc+32(FP), DX
	VXORPD Y0, Y0, Y0     // lanes (a0,a1,a2,a3)
	XORQ  AX, AX          // blocks processed

loop:
	CMPQ  AX, CX
	JGE   done

	// First 4-wide chunk: lanes += (q[i+j]-t[i+j])^2, j=0..3.
	VMOVUPD (SI), Y1
	VMOVUPD (DI), Y2
	VSUBPD  Y2, Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0

	// Second chunk: lanes += (q[i+4+j]-t[i+4+j])^2.
	VMOVUPD 32(SI), Y1
	VMOVUPD 32(DI), Y2
	VSUBPD  Y2, Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0

	ADDQ  $64, SI
	ADDQ  $64, DI
	INCQ  AX

	// check = (a0+a2)+(a1+a3); abandon when check > limit.
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X2    // (a0+a2, a1+a3)
	VSHUFPD $1, X2, X2, X3
	VADDSD  X3, X2, X4
	VUCOMISD X5, X4
	JA    done
	JMP   loop

done:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	MOVQ  AX, ret+40(FP)
	RET

// func tableQuadsAVX2(tab *float64, idx *int32, nq int64, acc *[4]float64)
//
// Lane j of the accumulator sums tab[idx[4b+j]] over quads b, gathered four
// at a time with VGATHERQPD. Callers guarantee every index is in range.
TEXT ·tableQuadsAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), SI
	MOVQ idx+8(FP), DI
	MOVQ nq+16(FP), CX
	MOVQ acc+24(FP), DX
	VXORPD Y0, Y0, Y0

tloop:
	TESTQ CX, CX
	JZ    tdone
	VPMOVSXDQ (DI), Y1         // 4 x int32 -> 4 x int64 indices
	VPCMPEQD  Y2, Y2, Y2       // all-ones mask (gather consumes it)
	VXORPD    Y3, Y3, Y3
	VGATHERQPD Y2, (SI)(Y1*8), Y3
	VADDPD    Y3, Y0, Y0
	ADDQ  $16, DI
	DECQ  CX
	JMP   tloop

tdone:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func envelopeSumsAVX2(tab *float64, q *[16]uint8, mins, maxs *uint8, w, bits, nb int64, dst *float64)
//
// Bounds nb blocks of four consecutive envelopes of w segments; lane j of
// Y0 is envelope j of the block, and it adds its segments' lookups in
// segment order from zero, as envelopeSumsScalar does. Each envelope's
// sixteen bytes are clamped at once (bytes past w belong to the next
// envelope and are never looked up), the four clamped vectors are
// transposed so that one dword holds a segment's four symbols, and each
// segment is then one VGATHERQPD from its table row and one VADDPD. The
// caller bounds nb so that every sixteen-byte load stays inside mins and
// maxs.

// ECLAMP clamps the query symbols X15 into the envelope [mn, mx] the way
// the comparison chain does — mn when q < mn, else min(q, mx) — and masks
// the result to the table row (X14).
#define ECLAMP(mn, mx, c) \
	VMOVDQU   mn, X1;         \
	VPMAXUB   X1, X15, X2;    \
	VPCMPEQB  X15, X2, X2;    \
	VPMINUB   mx, X15, X3;    \
	VPBLENDVB X2, X3, X1, c;  \
	VPAND     X14, c, c

// ESEG adds one segment: the low dword of t holds the block's four symbols
// on it, R8 points at its table row. It moves t and R8 on to the next
// segment and leaves the block after the last one.
#define ESEG(t) \
	VPMOVZXBQ  t, Y12;                \
	VPCMPEQD   Y13, Y13, Y13;         \
	VXORPD     Y9, Y9, Y9;            \
	VGATHERQPD Y13, (R8)(Y12*8), Y9;  \
	VADDPD     Y9, Y0, Y0;            \
	VPSRLDQ    $4, t, t;              \
	ADDQ       DX, R8;                \
	DECQ       CX;                    \
	JZ         esum

TEXT ·envelopeSumsAVX2(SB), NOSPLIT, $0-64
	MOVQ tab+0(FP), SI
	MOVQ q+8(FP), AX
	MOVQ mins+16(FP), R9
	MOVQ maxs+24(FP), R10
	MOVQ w+32(FP), R11
	MOVQ bits+40(FP), CX
	MOVQ nb+48(FP), BX
	MOVQ dst+56(FP), DI
	VMOVDQU (AX), X15          // the query's symbols
	MOVQ $1, DX
	SHLQ CX, DX                // 1<<bits
	LEAQ -1(DX), AX
	MOVQ AX, X14
	VPBROADCASTB X14, X14      // the symbol mask, in every byte
	SHLQ $3, DX                // a table row, in bytes
	LEAQ (R11)(R11*2), R12     // 3w

eblock:
	TESTQ BX, BX
	JZ    edone
	ECLAMP((R9), (R10), X4)
	ECLAMP((R9)(R11*1), (R10)(R11*1), X5)
	ECLAMP((R9)(R11*2), (R10)(R11*2), X6)
	ECLAMP((R9)(R12*1), (R10)(R12*1), X7)

	// Transpose: X4..X7 take segments 0-3, 4-7, 8-11 and 12-15, one dword
	// a segment holding envelopes 0..3's symbols on it.
	VPUNPCKLBW X5, X4, X8
	VPUNPCKLBW X7, X6, X9
	VPUNPCKHBW X5, X4, X10
	VPUNPCKHBW X7, X6, X11
	VPUNPCKLWD X9, X8, X4
	VPUNPCKHWD X9, X8, X5
	VPUNPCKLWD X11, X10, X6
	VPUNPCKHWD X11, X10, X7

	VXORPD Y0, Y0, Y0
	MOVQ   SI, R8
	MOVQ   R11, CX
	ESEG(X4)
	ESEG(X4)
	ESEG(X4)
	ESEG(X4)
	ESEG(X5)
	ESEG(X5)
	ESEG(X5)
	ESEG(X5)
	ESEG(X6)
	ESEG(X6)
	ESEG(X6)
	ESEG(X6)
	ESEG(X7)
	ESEG(X7)
	ESEG(X7)
	ESEG(X7)

esum:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R9)(R11*4), R9
	LEAQ    (R10)(R11*4), R10
	DECQ    BX
	JMP     eblock

edone:
	VZEROUPPER
	RET

// func symbolSumsAVX2(tab *float64, syms *uint8, w, bits, n int64, dst *float64)
//
// Bounds n consecutive entries of w symbols, one an iteration, in
// symbolSumsScalar's order: lane j of Y0 adds the lookups of segments j,
// j+4, ... of the entry, quad by quad, then the lanes combine as
// (a0+a2)+(a1+a3) and the segments past the last whole quad follow one at a
// time. A quad's four symbols are one VPMOVZXBD, masked to the row (X14)
// and offset to their four rows (X8..X11, set up before the loop), then one
// VGATHERDPD and one VADDPD.

// SQUAD adds quad q of the entry at SI, whose rows' offsets are in offs,
// and leaves for the lane sum after the last one.
#define SQUAD(q, offs) \
	VPMOVZXBD  (q*4)(SI), X1;       \
	VPAND      X14, X1, X1;         \
	VPADDD     offs, X1, X1;        \
	VPCMPEQD   Y2, Y2, Y2;          \
	VXORPD     Y3, Y3, Y3;          \
	VGATHERDPD Y2, (R8)(X1*8), Y3;  \
	VADDPD     Y3, Y0, Y0;          \
	DECQ       CX;                  \
	JZ         shsum

TEXT ·symbolSumsAVX2(SB), NOSPLIT, $0-48
	MOVQ tab+0(FP), R8
	MOVQ syms+8(FP), SI
	MOVQ w+16(FP), R11
	MOVQ bits+24(FP), CX
	MOVQ n+32(FP), BX
	MOVQ dst+40(FP), DI
	MOVQ $1, DX
	SHLQ CX, DX                // 1<<bits, a row's length
	LEAQ -1(DX), R12           // the symbol mask
	MOVQ R12, X14
	VPBROADCASTD X14, X14
	// X8..X11: the offsets of segments 4q..4q+3's rows, (4q+j)<<bits.
	MOVQ DX, X13
	VPBROADCASTD X13, X13      // one row, in every lane
	VPXOR   X8, X8, X8
	VPSLLDQ $4, X13, X12       // (0, r, r, r)
	VPADDD  X12, X8, X8        // (0, r, r, r)
	VPSLLDQ $8, X13, X12       // (0, 0, r, r)
	VPADDD  X12, X8, X8        // (0, r, 2r, 2r)
	VPSLLDQ $12, X13, X12      // (0, 0, 0, r)
	VPADDD  X12, X8, X8        // (0, r, 2r, 3r)
	VPSLLD  $2, X13, X13       // four rows
	VPADDD  X13, X8, X9
	VPADDD  X13, X9, X10
	VPADDD  X13, X10, X11
	// R13: the segments in whole quads; R9: the tail's first row, in bytes.
	MOVQ R11, R13
	SHRQ $2, R13
	MOVQ R13, R9
	SHLQ $2, R9
	SHLQ CX, R9
	SHLQ $3, R9
	ADDQ R8, R9
	SHLQ $3, DX                // a row, in bytes

sentry:
	TESTQ BX, BX
	JZ    sdone
	VXORPD Y0, Y0, Y0
	MOVQ   R13, CX
	TESTQ  CX, CX
	JZ     shsum
	SQUAD(0, X8)
	SQUAD(1, X9)
	SQUAD(2, X10)
	SQUAD(3, X11)

shsum:
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X2         // (a0+a2, a1+a3)
	VSHUFPD $1, X2, X2, X3
	VADDSD  X3, X2, X4         // (a0+a2)+(a1+a3)
	// The tail: segments 4*R13 .. w-1, one lookup each, in order.
	MOVQ R13, AX
	SHLQ $2, AX                // its first segment
	MOVQ R9, R10
stail:
	CMPQ    AX, R11
	JGE     sstore
	MOVBQZX (SI)(AX*1), R14
	ANDQ    R12, R14
	VADDSD  (R10)(R14*8), X4, X4
	ADDQ    DX, R10
	INCQ    AX
	JMP     stail

sstore:
	VMOVSD X4, (DI)
	ADDQ   $8, DI
	ADDQ   R11, SI
	DECQ   BX
	JMP    sentry

sdone:
	VZEROUPPER
	RET
