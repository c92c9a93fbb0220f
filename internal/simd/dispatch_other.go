//go:build !amd64 && !arm64

package simd

// No accelerated kernel set on this architecture: the portable scalar
// blocked kernels are the only implementation, and Select accepts only
// "scalar" and "auto".

const accelName = ""

const archDescription = "this architecture (scalar only)"

func archSupported() bool { return false }

func sqBlocksAccel(q, t []float64, nb int, limit float64, acc *[4]float64) int {
	panic("simd: no accelerated kernels on this architecture")
}

func sqBlocksEncAccel(q []float64, buf []byte, nb int, limit float64, acc *[4]float64) int {
	panic("simd: no accelerated kernels on this architecture")
}

func tableQuadsAccel(tab []float64, idx []int32, nq int, acc *[4]float64) {
	panic("simd: no accelerated kernels on this architecture")
}

func envelopeBlocksAccel(dst, tab []float64, q *[EnvelopeSegments]uint8, bits int, mins, maxs []uint8, w, nb int) {
	panic("simd: no accelerated kernels on this architecture")
}

func symbolSumsAccel(dst, tab []float64, w, bits int, syms []uint8) {
	panic("simd: no accelerated kernels on this architecture")
}
