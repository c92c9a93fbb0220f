// Package simd provides the runtime-dispatched compute kernels behind
// Coconut's hottest loops, four kernels in all: early-abandoning squared
// Euclidean distance (plain and fused with payload decoding), the MINDIST
// lookup-table sum, the envelope bound of a batch of symbol envelopes (zone
// maps) against one query's table, and the bound of a batch of entries from
// their resident symbols.
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
// bit-equality. The envelope kernel needs no blocked order: lane i of its
// vector is envelope i, which sums its segments' lookups one at a time, in
// segment order from zero, exactly as the scalar loop does. The symbol
// kernel keeps the table sum's order, one entry at a time: lane j adds the
// lookups of segments j, j+4, ..., the lanes combine as (a0+a2)+(a1+a3),
// and the segments past the last whole quad follow in order, so an entry's
// bound is TableSum's over its indexes, bit for bit. Those two have AVX2
// bodies only; on arm64 the accelerated set runs their scalar references.
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

// EnvelopeSegments is the most segments an envelope of EnvelopeSums has.
const EnvelopeSegments = 16

// EnvelopeSums bounds len(dst) consecutive symbol envelopes against one
// query. Envelope i spans [mins[i*w+s], maxs[i*w+s]] on segment s, w =
// len(q), and dst[i] is the sum over its segments, in segment order from
// zero, of tab[s<<bits | c]: c is the query's symbol q[s] clamped into the
// envelope by comparison — the minimum when q[s] is below it, else the
// maximum when q[s] is above that, else q[s], which is how an inverted
// envelope clamps too — and taken modulo 1<<bits, so that no byte input
// indexes past a table row. w must be 1..EnvelopeSegments, bits 1..8, tab at
// least w<<bits long and mins and maxs at least len(dst)*w; the kernel reads
// nothing past either slice, so bytes after the last envelope let more of
// the batch run in blocks.
//
// The AVX2 body bounds four envelopes a block: it clamps each envelope's
// sixteen bytes at once, transposes the 4x16 clamped symbols, and then for
// each segment gathers the four envelopes' lookups with one VGATHERQPD and
// adds them with one VADDPD. Envelopes past the last whole block whose loads
// stay inside the slices run through the scalar reference.
func EnvelopeSums(dst, tab []float64, q []uint8, bits int, mins, maxs []uint8) {
	w, n := len(q), len(dst)
	if w < 1 || w > EnvelopeSegments || bits < 1 || bits > 8 || len(tab) < w<<bits || len(mins) < n*w || len(maxs) < n*w {
		envelopeShapePanic(n, w, bits, len(tab), len(mins), len(maxs))
	}
	done := 0
	if n >= 4 && accelOn.Load() {
		if nb := envelopeBlocks(n, w, min(len(mins), len(maxs))); nb > 0 {
			var qq [EnvelopeSegments]uint8
			copy(qq[:], q)
			envelopeBlocksAccel(dst, tab, &qq, bits, mins, maxs, w, nb)
			done = 4 * nb
		}
	}
	envelopeSumsScalar(dst[done:], tab, q, bits, mins[done*w:], maxs[done*w:])
}

// envelopeShapePanic reports EnvelopeSums' misuse, out of its line.
//
//go:noinline
func envelopeShapePanic(n, w, bits, tab, mins, maxs int) {
	panic(fmt.Sprintf("simd: EnvelopeSums of %d envelopes of %d segments at %d bits over a table of %d and %d/%d envelope bytes",
		n, w, bits, tab, mins, maxs))
}

// envelopeBlocks returns how many whole blocks of four of n envelopes of w
// segments the accelerated body may bound in arrays of avail bytes: it loads
// EnvelopeSegments bytes at each envelope, so block b reads up to byte
// (4b+3)*w + EnvelopeSegments.
func envelopeBlocks(n, w, avail int) int {
	return max(0, min(n/4, (avail-EnvelopeSegments+w)/(4*w)))
}

// SymbolSums bounds len(dst) consecutive entries' symbols against one query:
// entry i's w symbols are syms[i*w : (i+1)*w], and dst[i] is the sum of
// tab[s<<bits | syms[i*w+s]] over its segments s, each symbol taken modulo
// 1<<bits so that no byte input indexes past a table row. The sum is added in
// TableSum's blocked order — four lanes over the quads of segments, lanes
// combined (a0+a2)+(a1+a3), the remaining segments added in sequence — so
// dst[i] is, bit for bit, TableSum over the entry's table indexes. w must be
// 1..EnvelopeSegments, bits 1..8, tab at least w<<bits long and syms at least
// len(dst)*w.
//
// The AVX2 body bounds one entry an iteration: each quad of its symbols is
// one VPMOVZXBD, masked and offset to its table rows by registers set up
// before the loop, one VGATHERDPD and one VADDPD. It reads no byte past an
// entry's w, so it bounds the whole batch.
func SymbolSums(dst, tab []float64, w, bits int, syms []uint8) {
	n := len(dst)
	if w < 1 || w > EnvelopeSegments || bits < 1 || bits > 8 || len(tab) < w<<bits || len(syms) < n*w {
		symbolShapePanic(n, w, bits, len(tab), len(syms))
	}
	if n > 0 && accelOn.Load() {
		symbolSumsAccel(dst, tab, w, bits, syms)
		return
	}
	symbolSumsScalar(dst, tab, w, bits, syms)
}

// symbolShapePanic reports SymbolSums' misuse, out of its line.
//
//go:noinline
func symbolShapePanic(n, w, bits, tab, syms int) {
	panic(fmt.Sprintf("simd: SymbolSums of %d entries of %d segments at %d bits over a table of %d and %d symbol bytes",
		n, w, bits, tab, syms))
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

// symbolSumsScalar is SymbolSums' reference: lane j of an entry adds the
// lookups of segments j, j+4, ..., as tableQuadsScalar's does, and the tail
// follows the combined lanes in segment order.
func symbolSumsScalar(dst, tab []float64, w, bits int, syms []uint8) {
	rowLen, mask := 1<<bits, 1<<bits-1
	nq := w / 4
	for i := range dst {
		e := syms[i*w : (i+1)*w : (i+1)*w]
		var a0, a1, a2, a3 float64
		row := 0
		for b := 0; b < nq; b++ {
			qd := e[4*b : 4*b+4 : 4*b+4]
			a0 += tab[row|int(qd[0])&mask]
			a1 += tab[row+rowLen|int(qd[1])&mask]
			a2 += tab[row+2*rowLen|int(qd[2])&mask]
			a3 += tab[row+3*rowLen|int(qd[3])&mask]
			row += 4 * rowLen
		}
		tot := (a0 + a2) + (a1 + a3)
		for _, c := range e[4*nq:] {
			tot += tab[row|int(c)&mask]
			row += rowLen
		}
		dst[i] = tot
	}
}

// envelopeSumsScalar is EnvelopeSums' reference. The comparison chain is
// written as sign-mask selects: which side of an envelope the query symbol
// falls on is as good as random, and a mispredicted branch costs more than
// the lookup it guards.
func envelopeSumsScalar(dst, tab []float64, q []uint8, bits int, mins, maxs []uint8) {
	for i := range dst {
		dst[i] = envelopeSum(tab, q, bits, mins[i*len(q):], maxs[i*len(q):])
	}
}

// envelopeSum is the sum of the envelope that starts mn and mx, a loop of
// its own so that what it keeps live fits in registers.
func envelopeSum(tab []float64, q []uint8, bits int, mn, mx []uint8) float64 {
	rowLen := 1 << bits
	mask := rowLen - 1
	mn, mx = mn[:len(q)], mx[:len(q)]
	acc, row := 0.0, 0
	for s, qs := range q {
		c, lo, hi := int(qs), int(mn[s]), int(mx[s])
		over := (hi - c) >> 63  // all ones when c > hi
		under := (c - lo) >> 63 // all ones when c < lo
		c ^= (c ^ hi) & over
		c ^= (c ^ lo) & under
		acc += tab[row|c&mask]
		row += rowLen
	}
	return acc
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
	byteOf := func() uint8 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint8(state >> 56)
	}
	return envelopeSelfTest(byteOf, next) && symbolSelfTest(byteOf, next)
}

// envelopeSelfTest holds the accelerated envelope blocks to the scalar
// reference on every shape a summary may have, with arbitrary bytes for the
// query symbols and the envelopes — inverted ones and symbols past the
// cardinality included.
func envelopeSelfTest(byteOf func() uint8, next func() float64) bool {
	const n = 9
	tab := make([]float64, EnvelopeSegments<<8)
	for i := range tab {
		tab[i] = next()
	}
	var q [EnvelopeSegments]uint8
	mins, maxs := make([]uint8, n*EnvelopeSegments), make([]uint8, n*EnvelopeSegments)
	var sDst, aDst [n]float64
	for w := 1; w <= EnvelopeSegments; w++ {
		for bits := 1; bits <= 8; bits++ {
			for i := range q {
				q[i] = byteOf()
			}
			for i := range mins {
				mins[i], maxs[i] = byteOf(), byteOf()
			}
			nb := envelopeBlocks(n, w, len(mins))
			envelopeSumsScalar(sDst[:4*nb], tab, q[:w], bits, mins, maxs)
			envelopeBlocksAccel(aDst[:], tab, &q, bits, mins, maxs, w, nb)
			for i := 0; i < 4*nb; i++ {
				if math.Float64bits(sDst[i]) != math.Float64bits(aDst[i]) {
					return false
				}
			}
		}
	}
	return true
}

// symbolSelfTest holds the accelerated symbol sums to the scalar reference
// on every shape a summary may have, with arbitrary bytes for the symbols —
// symbols past the cardinality included.
func symbolSelfTest(byteOf func() uint8, next func() float64) bool {
	const n = 5
	tab := make([]float64, EnvelopeSegments<<8)
	for i := range tab {
		tab[i] = next()
	}
	syms := make([]uint8, n*EnvelopeSegments)
	var sDst, aDst [n]float64
	for w := 1; w <= EnvelopeSegments; w++ {
		for bits := 1; bits <= 8; bits++ {
			for i := range syms {
				syms[i] = byteOf()
			}
			symbolSumsScalar(sDst[:], tab, w, bits, syms)
			symbolSumsAccel(aDst[:], tab, w, bits, syms)
			for i := range sDst {
				if math.Float64bits(sDst[i]) != math.Float64bits(aDst[i]) {
					return false
				}
			}
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
