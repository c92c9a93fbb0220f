package simd

import "unsafe"

// accelName is the accelerated kernel set this architecture offers.
const accelName = "neon"

const archDescription = "arm64 (this build offers neon)"

// archSupported: ASIMD (NEON) is baseline on arm64 — every CPU Go runs on
// has it. The init self-test still gates enabling, so a bad encoding can
// only ever demote to scalar, never mis-answer.
func archSupported() bool { return true }

// The assembly works on raw byte pointers — arm64 Go is little-endian, so
// an encoded payload and a []float64 have identical memory layout and one
// body serves both the plain and the fused-decode kernels.

func sqBlocksAccel(q, t []float64, nb int, limit float64, acc *[4]float64) int {
	return int(sqBlocksBytesNEON(&q[0], unsafe.Pointer(&t[0]), int64(nb), limit, acc))
}

func sqBlocksEncAccel(q []float64, buf []byte, nb int, limit float64, acc *[4]float64) int {
	return int(sqBlocksBytesNEON(&q[0], unsafe.Pointer(&buf[0]), int64(nb), limit, acc))
}

func tableQuadsAccel(tab []float64, idx []int32, nq int, acc *[4]float64) {
	tableQuadsNEON(&tab[0], &idx[0], int64(nq), acc)
}

// envelopeBlocksAccel has no NEON body: the set's envelope blocks run the
// scalar reference.
func envelopeBlocksAccel(dst, tab []float64, q *[EnvelopeSegments]uint8, bits int, mins, maxs []uint8, w, nb int) {
	envelopeSumsScalar(dst[:4*nb], tab, q[:w], bits, mins, maxs)
}

// symbolSumsAccel has no NEON body: the set's symbol sums run the scalar
// reference.
func symbolSumsAccel(dst, tab []float64, w, bits int, syms []uint8) {
	symbolSumsScalar(dst, tab, w, bits, syms)
}

// Implemented in kernels_arm64.s.

//go:noescape
func sqBlocksBytesNEON(q *float64, t unsafe.Pointer, nb int64, limit float64, acc *[4]float64) int64

//go:noescape
func tableQuadsNEON(tab *float64, idx *int32, nq int64, acc *[4]float64)
