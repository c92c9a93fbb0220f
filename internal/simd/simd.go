// Package simd provides the runtime-dispatched compute kernels behind
// Coconut's two hottest loops: early-abandoning squared Euclidean distance
// (plain and fused with payload decoding) and the MINDIST lookup-table sum.
//
// Every kernel exists in (up to) two implementations selected at init time:
// an architecture-accelerated one written in Go assembly (AVX2 on amd64,
// NEON on arm64) and a portable scalar fallback. The scalar fallback is not
// the naive sequential loop — it implements the *identical* blocked
// algorithm as the assembly (four accumulator lanes, eight-point blocks,
// one abandon check per block, fixed (a0+a2)+(a1+a3) horizontal-sum order),
// so the two paths produce bit-for-bit identical results on every input and
// cannot drift apart. FMA is deliberately not used in the assembly: fused
// multiply-add skips the intermediate rounding of d*d and would break that
// bit-equality.
//
// Selection: init detects CPU support, runs a bit-exactness self-test of
// the accelerated kernels against the scalar reference, and enables the
// accelerated set only if both pass. The choice is process-wide, and made
// there only: the COCONUT_KERNELS environment variable ("scalar", "avx2",
// "neon", or "auto") forces one at init, as coconut-bench's -kernels flag
// does through Select; no index option selects kernels. Active reports the
// set in use so published numbers are attributable to a code path.
package simd

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync/atomic"
)

// BlockPoints is the number of series points one abandon-checked block
// covers. The abandon limit is tested once per block (not per point), so
// kernels do strictly less abandoning than the historical scalar loop but
// identical abandoning across implementations.
const BlockPoints = 8

// KernelScalar names the portable fallback kernel set.
const KernelScalar = "scalar"

// accelOn is the dispatch switch: true routes the hot entry points to the
// architecture-accelerated kernels. An atomic (rather than a plain bool)
// keeps Select race-free against concurrent searches; the per-call load is
// effectively free next to the kernel body.
var accelOn atomic.Bool

// accelUsable records whether the accelerated set may be enabled at all:
// the CPU supports it and the init self-test proved it bit-identical to the
// scalar reference.
var accelUsable bool

// demoted records an accelerated set that the CPU advertises but the
// self-test rejected — a safety belt that should never trip, surfaced via
// Status for observability.
var demoted bool

func init() {
	if archSupported() {
		if selfTest() {
			accelUsable = true
		} else {
			demoted = true
		}
	}
	if err := Select(os.Getenv("COCONUT_KERNELS")); err != nil {
		// Unknown or unavailable request in the environment: run on the
		// best verified set rather than failing init.
		_ = Select("auto")
	}
}

// Active returns the name of the kernel set answering queries right now:
// "avx2", "neon", or "scalar".
func Active() string {
	if accelOn.Load() {
		return accelName
	}
	return KernelScalar
}

// Available lists the kernel sets Select accepts on this machine, the
// active one included.
func Available() []string {
	out := []string{KernelScalar}
	if accelUsable {
		out = append(out, accelName)
	}
	return out
}

// Status describes the dispatch decision for diagnostics: the active set,
// plus a note when hardware support was detected but demoted by the
// self-test.
func Status() string {
	if demoted {
		return Active() + " (accelerated set failed self-test, demoted)"
	}
	return Active()
}

// Select forces a kernel set: "scalar", the architecture set ("avx2" or
// "neon"), or "auto"/"" to re-run the default selection. It returns an
// error for unknown names and for accelerated sets this machine cannot
// run; the active set is unchanged on error.
func Select(name string) error {
	switch name {
	case "", "auto":
		accelOn.Store(accelUsable)
		return nil
	case KernelScalar:
		accelOn.Store(false)
		return nil
	case "avx2", "neon":
		if name != accelName {
			return fmt.Errorf("simd: kernel set %q unavailable on %s", name, archDescription)
		}
		if !accelUsable {
			return fmt.Errorf("simd: kernel set %q unavailable on this CPU", name)
		}
		accelOn.Store(true)
		return nil
	default:
		return fmt.Errorf("simd: unknown kernel set %q (want scalar, avx2, neon, or auto)", name)
	}
}

// SqDist returns the early-abandoning squared Euclidean distance between q
// and the first len(q) points of t: as soon as a block's partial sum
// exceeds limit the value so far (> limit) is returned. Pass +Inf to force
// the full distance. len(t) must be at least len(q).
func SqDist(q, t []float64, limit float64) float64 {
	n := len(q)
	if len(t) < n {
		panic(fmt.Sprintf("simd: SqDist length mismatch %d vs %d", n, len(t)))
	}
	nb := n / BlockPoints
	var acc [4]float64
	done := nb
	if nb > 0 {
		if accelOn.Load() {
			done = sqBlocksAccel(q, t, nb, limit, &acc)
		} else {
			done = sqBlocksScalar(q, t, nb, limit, &acc)
		}
	}
	// tot reproduces the kernels' block check bit-for-bit. done < nb means
	// an inner block abandoned; tot > limit catches an abandon at the final
	// block, which the block count alone cannot distinguish from a clean
	// finish.
	tot := (acc[0] + acc[2]) + (acc[1] + acc[3])
	if done < nb || tot > limit {
		return tot
	}
	for i := nb * BlockPoints; i < n; i++ {
		d := q[i] - t[i]
		tot += d * d
		if tot > limit {
			return tot
		}
	}
	return tot
}

// SqDistEncoded is SqDist with t in its little-endian IEEE-754 encoding
// (series.AppendBinary layout), fusing payload decoding into the distance
// accumulation. buf must hold at least 8*len(q) bytes.
func SqDistEncoded(q []float64, buf []byte, limit float64) float64 {
	n := len(q)
	if len(buf) < 8*n {
		panic(fmt.Sprintf("simd: SqDistEncoded short buffer %d for %d points", len(buf), n))
	}
	nb := n / BlockPoints
	var acc [4]float64
	done := nb
	if nb > 0 {
		if accelOn.Load() {
			done = sqBlocksEncAccel(q, buf, nb, limit, &acc)
		} else {
			done = sqBlocksEncScalar(q, buf, nb, limit, &acc)
		}
	}
	tot := (acc[0] + acc[2]) + (acc[1] + acc[3])
	if done < nb || tot > limit {
		return tot
	}
	for i := nb * BlockPoints; i < n; i++ {
		d := q[i] - math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		tot += d * d
		if tot > limit {
			return tot
		}
	}
	return tot
}

// Decode fills dst from the little-endian IEEE-754 encoding in buf. It is
// a pure bit reinterpretation — every kernel set produces identical output
// by construction — and exists so all payload decoding in the tree goes
// through one entry point. buf must hold at least 8*len(dst) bytes.
func Decode(buf []byte, dst []float64) {
	if len(buf) < 8*len(dst) {
		panic(fmt.Sprintf("simd: Decode short buffer %d for %d points", len(buf), len(dst)))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// TableSum returns sum(tab[idx[i]]) in the kernels' blocked order: four
// accumulator lanes over quads of indices, lanes combined (a0+a2)+(a1+a3),
// remaining indices added sequentially. Every idx element must be a valid
// index into tab; the AVX2 path gathers without bounds checks.
func TableSum(tab []float64, idx []int32) float64 {
	nq := len(idx) / 4
	var acc [4]float64
	if nq > 0 {
		if accelOn.Load() {
			tableQuadsAccel(tab, idx, nq, &acc)
		} else {
			tableQuadsScalar(tab, idx, nq, &acc)
		}
	}
	tot := (acc[0] + acc[2]) + (acc[1] + acc[3])
	for i := nq * 4; i < len(idx); i++ {
		tot += tab[idx[i]]
	}
	return tot
}

// --- Scalar reference kernels. ---
//
// These mirror the assembly exactly: lane j accumulates points j and j+4 of
// each 8-point block, and the per-block abandon check sums the lanes as
// (a0+a2)+(a1+a3) — the AVX2 horizontal-sum order. Returns the number of
// blocks processed; < nb means the check exceeded limit after that block.

func sqBlocksScalar(q, t []float64, nb int, limit float64, acc *[4]float64) int {
	var a0, a1, a2, a3 float64
	for b := 0; b < nb; b++ {
		i := b * BlockPoints
		qq := q[i : i+8 : i+8]
		tt := t[i : i+8 : i+8]
		d0 := qq[0] - tt[0]
		a0 += d0 * d0
		d1 := qq[1] - tt[1]
		a1 += d1 * d1
		d2 := qq[2] - tt[2]
		a2 += d2 * d2
		d3 := qq[3] - tt[3]
		a3 += d3 * d3
		d4 := qq[4] - tt[4]
		a0 += d4 * d4
		d5 := qq[5] - tt[5]
		a1 += d5 * d5
		d6 := qq[6] - tt[6]
		a2 += d6 * d6
		d7 := qq[7] - tt[7]
		a3 += d7 * d7
		if (a0+a2)+(a1+a3) > limit {
			acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
			return b + 1
		}
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	return nb
}

func sqBlocksEncScalar(q []float64, buf []byte, nb int, limit float64, acc *[4]float64) int {
	var a0, a1, a2, a3 float64
	for b := 0; b < nb; b++ {
		i := b * BlockPoints
		qq := q[i : i+8 : i+8]
		bb := buf[8*i : 8*i+64 : 8*i+64]
		d0 := qq[0] - math.Float64frombits(binary.LittleEndian.Uint64(bb))
		a0 += d0 * d0
		d1 := qq[1] - math.Float64frombits(binary.LittleEndian.Uint64(bb[8:]))
		a1 += d1 * d1
		d2 := qq[2] - math.Float64frombits(binary.LittleEndian.Uint64(bb[16:]))
		a2 += d2 * d2
		d3 := qq[3] - math.Float64frombits(binary.LittleEndian.Uint64(bb[24:]))
		a3 += d3 * d3
		d4 := qq[4] - math.Float64frombits(binary.LittleEndian.Uint64(bb[32:]))
		a0 += d4 * d4
		d5 := qq[5] - math.Float64frombits(binary.LittleEndian.Uint64(bb[40:]))
		a1 += d5 * d5
		d6 := qq[6] - math.Float64frombits(binary.LittleEndian.Uint64(bb[48:]))
		a2 += d6 * d6
		d7 := qq[7] - math.Float64frombits(binary.LittleEndian.Uint64(bb[56:]))
		a3 += d7 * d7
		if (a0+a2)+(a1+a3) > limit {
			acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
			return b + 1
		}
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	return nb
}

func tableQuadsScalar(tab []float64, idx []int32, nq int, acc *[4]float64) {
	var a0, a1, a2, a3 float64
	for b := 0; b < nq; b++ {
		ii := idx[b*4 : b*4+4 : b*4+4]
		a0 += tab[ii[0]]
		a1 += tab[ii[1]]
		a2 += tab[ii[2]]
		a3 += tab[ii[3]]
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}

// --- Init self-test. ---

// selfTest proves the accelerated kernels bit-identical to the scalar
// reference on deterministic inputs covering full blocks, tails, abandons,
// and special values. A failure demotes the process to scalar — wrong
// answers are never an acceptable trade for speed.
func selfTest() bool {
	// Deterministic pseudo-random doubles from a fixed LCG; no math/rand to
	// keep init dependency-free and reproducible.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		// Map to a modest range, mixing sign, magnitude, and exact zeros.
		v := float64(int64(state>>20)%4000) / 111.0
		return v
	}
	for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 128, 256} {
		q := make([]float64, n)
		t := make([]float64, n)
		for i := range q {
			q[i] = next()
			t[i] = next()
		}
		buf := make([]byte, 8*n)
		for i, v := range t {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		full := sqFullScalar(q, t)
		for _, limit := range []float64{math.Inf(1), 0, full / 4, full, full * 2} {
			nb := n / BlockPoints
			var sAcc, aAcc [4]float64
			sDone := sqBlocksScalar(q, t, nb, limit, &sAcc)
			aDone := sqBlocksAccel(q, t, nb, limit, &aAcc)
			if sDone != aDone || !accEqual(&sAcc, &aAcc) {
				return false
			}
			var sEnc, aEnc [4]float64
			sDone = sqBlocksEncScalar(q, buf, nb, limit, &sEnc)
			aDone = sqBlocksEncAccel(q, buf, nb, limit, &aEnc)
			if sDone != aDone || !accEqual(&sEnc, &aEnc) {
				return false
			}
		}
		// Table sums over a synthetic table with the index width of this n.
		tab := make([]float64, 4*n)
		for i := range tab {
			tab[i] = next()
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32((int(state>>33) + i*i) % len(tab))
			state = state*6364136223846793005 + 1442695040888963407
		}
		var sAcc, aAcc [4]float64
		tableQuadsScalar(tab, idx, n/4, &sAcc)
		tableQuadsAccel(tab, idx, n/4, &aAcc)
		if !accEqual(&sAcc, &aAcc) {
			return false
		}
	}
	return true
}

// sqFullScalar is an independent plain sum used only to pick self-test
// abandon limits.
func sqFullScalar(q, t []float64) float64 {
	acc := 0.0
	for i := range q {
		d := q[i] - t[i]
		acc += d * d
	}
	return acc
}

func accEqual(a, b *[4]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
