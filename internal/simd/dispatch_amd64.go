package simd

import "unsafe"

// accelName is the accelerated kernel set this architecture offers.
const accelName = "avx2"

const archDescription = "amd64 (this build offers avx2)"

// archSupported reports AVX2 usable on this CPU: the AVX2 feature bit, plus
// OSXSAVE and the XCR0 XMM+YMM bits proving the OS preserves the 256-bit
// register state across context switches.
func archSupported() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	lo, _ := xgetbv()
	if lo&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// The assembly works on raw byte pointers — on little-endian amd64 an
// encoded payload and a []float64 have identical memory layout, so one body
// serves both the plain and the fused-decode kernels.

func sqBlocksAccel(q, t []float64, nb int, limit float64, acc *[4]float64) int {
	return int(sqBlocksBytesAVX2(&q[0], unsafe.Pointer(&t[0]), int64(nb), limit, acc))
}

func sqBlocksEncAccel(q []float64, buf []byte, nb int, limit float64, acc *[4]float64) int {
	return int(sqBlocksBytesAVX2(&q[0], unsafe.Pointer(&buf[0]), int64(nb), limit, acc))
}

func tableQuadsAccel(tab []float64, idx []int32, nq int, acc *[4]float64) {
	tableQuadsAVX2(&tab[0], &idx[0], int64(nq), acc)
}

func envelopeBlocksAccel(dst, tab []float64, q *[EnvelopeSegments]uint8, bits int, mins, maxs []uint8, w, nb int) {
	envelopeSumsAVX2(&tab[0], q, &mins[0], &maxs[0], int64(w), int64(bits), int64(nb), &dst[0])
}

func symbolSumsAccel(dst, tab []float64, w, bits int, syms []uint8) {
	symbolSumsAVX2(&tab[0], &syms[0], int64(w), int64(bits), int64(len(dst)), &dst[0])
}

// Implemented in kernels_amd64.s.

//go:noescape
func sqBlocksBytesAVX2(q *float64, t unsafe.Pointer, nb int64, limit float64, acc *[4]float64) int64

//go:noescape
func tableQuadsAVX2(tab *float64, idx *int32, nq int64, acc *[4]float64)

//go:noescape
func envelopeSumsAVX2(tab *float64, q *[EnvelopeSegments]uint8, mins, maxs *uint8, w, bits, nb int64, dst *float64)

//go:noescape
func symbolSumsAVX2(tab *float64, syms *uint8, w, bits, n int64, dst *float64)

// Implemented in cpuid_amd64.s.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (lo, hi uint32)
