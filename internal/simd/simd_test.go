package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refSqDist reproduces the blocked algorithm independently of the kernel
// entry points: lane j accumulates points j and j+4 of each 8-point block,
// abandon checked per block with the (a0+a2)+(a1+a3) horizontal order,
// tail points added sequentially with a per-point check.
func refSqDist(q, t []float64, limit float64) float64 {
	var a [4]float64
	n := len(q)
	nb := n / BlockPoints
	for b := 0; b < nb; b++ {
		for j := 0; j < 4; j++ {
			d := q[b*8+j] - t[b*8+j]
			a[j] += d * d
			d = q[b*8+4+j] - t[b*8+4+j]
			a[j] += d * d
		}
		// NOTE: lane order within the block differs from the kernels here
		// (per-lane vs per-point), but each lane's addition sequence is the
		// same, which is all that determines the bits.
		if (a[0]+a[2])+(a[1]+a[3]) > limit {
			return (a[0] + a[2]) + (a[1] + a[3])
		}
	}
	tot := (a[0] + a[2]) + (a[1] + a[3])
	for i := nb * 8; i < n; i++ {
		d := q[i] - t[i]
		tot += d * d
		if tot > limit {
			return tot
		}
	}
	return tot
}

func encode(t []float64) []byte {
	buf := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// withKernel runs f under each available kernel set, restoring the default
// selection afterwards.
func withKernel(t *testing.T, f func(t *testing.T, name string)) {
	t.Helper()
	defer Select("auto")
	for _, name := range Available() {
		if err := Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		t.Run(name, func(t *testing.T) { f(t, name) })
	}
}

// TestSqDistKernelsBitIdentical is the core equivalence property: every
// available kernel set returns bit-for-bit the scalar blocked result, for
// every length 1..512 (block tails included) and a spread of abandon
// limits.
func TestSqDistKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 512; n++ {
		q := make([]float64, n)
		tt := make([]float64, n)
		for i := range q {
			q[i] = rng.NormFloat64()
			tt[i] = rng.NormFloat64()
		}
		buf := encode(tt)
		full := refSqDist(q, tt, math.Inf(1))
		limits := []float64{math.Inf(1), 0, full / 7, full / 2, full, full * 2}
		type res struct{ plain, enc uint64 }
		var got map[string]res
		withKernel(t, func(t *testing.T, name string) {
			r := res{
				plain: math.Float64bits(SqDist(q, tt, math.Inf(1))),
				enc:   math.Float64bits(SqDistEncoded(q, buf, math.Inf(1))),
			}
			if got == nil {
				got = map[string]res{}
			}
			got[name] = r
			for _, limit := range limits {
				want := refSqDist(q, tt, limit)
				if d := SqDist(q, tt, limit); math.Float64bits(d) != math.Float64bits(want) {
					t.Fatalf("n=%d limit=%v: SqDist=%v want %v", n, limit, d, want)
				}
				if d := SqDistEncoded(q, buf, limit); math.Float64bits(d) != math.Float64bits(want) {
					t.Fatalf("n=%d limit=%v: SqDistEncoded=%v want %v", n, limit, d, want)
				}
			}
		})
		base := got[KernelScalar]
		for name, r := range got {
			if r != base {
				t.Fatalf("n=%d: kernel %q differs from scalar: %v vs %v", n, name, r, base)
			}
		}
	}
}

// TestSqDistAbandonProperties pins the abandon contract on every kernel:
// a limit at or above the full distance never abandons (exact equality with
// the full sum), and an abandoned result is strictly greater than the
// limit.
func TestSqDistAbandonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	withKernel(t, func(t *testing.T, name string) {
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(300)
			q := make([]float64, n)
			tt := make([]float64, n)
			for i := range q {
				q[i] = rng.NormFloat64()
				tt[i] = rng.NormFloat64()
			}
			full := SqDist(q, tt, math.Inf(1))
			if got := SqDist(q, tt, full); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("n=%d: limit==full abandoned: %v vs %v", n, got, full)
			}
			limit := full * rng.Float64() * 0.9
			got := SqDist(q, tt, limit)
			if got <= limit && math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("n=%d: abandoned result %v not > limit %v and not full %v", n, got, limit, full)
			}
		}
	})
}

// TestTableSumKernelsBitIdentical covers the MINDIST table-sum kernel for
// every index-vector length 0..64 (the pruner uses <= 16 segments; longer
// vectors exercise the quad loop harder) against a blocked reference.
func TestTableSumKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tab := make([]float64, 4096)
	for i := range tab {
		tab[i] = rng.NormFloat64() * 10
	}
	ref := func(idx []int32) float64 {
		var a [4]float64
		nq := len(idx) / 4
		for b := 0; b < nq; b++ {
			for j := 0; j < 4; j++ {
				a[j] += tab[idx[b*4+j]]
			}
		}
		tot := (a[0] + a[2]) + (a[1] + a[3])
		for i := nq * 4; i < len(idx); i++ {
			tot += tab[idx[i]]
		}
		return tot
	}
	for n := 0; n <= 64; n++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(rng.Intn(len(tab)))
		}
		want := math.Float64bits(ref(idx))
		withKernel(t, func(t *testing.T, name string) {
			if got := math.Float64bits(TableSum(tab, idx)); got != want {
				t.Fatalf("n=%d: TableSum %x want %x", n, got, want)
			}
		})
	}
}

// envelopePlain is the envelope bound stated plainly: each query symbol
// clamped into envelope i by comparison, masked to the row, every lookup
// added in segment order.
func envelopePlain(tab []float64, q []uint8, bits int, mins, maxs []uint8, i int) float64 {
	w, acc := len(q), 0.0
	for s, c := range q {
		if mn, mx := mins[i*w+s], maxs[i*w+s]; c < mn {
			c = mn
		} else if c > mx {
			c = mx
		}
		acc += tab[s<<bits|int(c)&(1<<bits-1)]
	}
	return acc
}

// TestEnvelopeSumsKernelsBitIdentical: on every kernel set, EnvelopeSums
// gives envelopePlain's bits for every shape a summary may have (1..16
// segments x 1..8 bits), every batch length 0..37 (whole blocks and tails),
// and equal, full-range, inverted and random envelopes, with the arrays cut
// exactly at the batch's end and with bytes to spare after it.
func TestEnvelopeSumsKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tab := make([]float64, EnvelopeSegments<<8)
	for i := range tab {
		tab[i] = rng.ExpFloat64() * 10
	}
	const maxN = 37
	q := make([]uint8, EnvelopeSegments)
	mins, maxs := make([]uint8, (maxN+2)*EnvelopeSegments), make([]uint8, (maxN+2)*EnvelopeSegments)
	dst := make([]float64, maxN)
	for w := 1; w <= EnvelopeSegments; w++ {
		for bits := 1; bits <= 8; bits++ {
			card := 1 << bits
			for i := range q[:w] {
				q[i] = uint8(rng.Intn(card))
			}
			for i := range mins {
				a, b := uint8(rng.Intn(card)), uint8(rng.Intn(card))
				switch i / w % 4 {
				case 0: // equal
					b = a
				case 1: // the full range
					a, b = 0, uint8(card-1)
				case 2: // inverted, or equal
					a, b = max(a, b), min(a, b)
				}
				mins[i], maxs[i] = a, b
			}
			for n := 0; n <= maxN; n++ {
				for _, spare := range []int{0, 2 * w} {
					mn, mx := mins[:n*w+spare], maxs[:n*w+spare]
					withKernel(t, func(t *testing.T, name string) {
						clear(dst)
						EnvelopeSums(dst[:n], tab, q[:w], bits, mn, mx)
						for i := 0; i < n; i++ {
							if got, want := dst[i], envelopePlain(tab, q[:w], bits, mn, mx, i); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%dx%d n=%d spare=%d envelope %d: %x, plain %x", w, bits, n, spare, i, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestEnvelopeSumsPanicsOnShortInput: a shape outside 1..16 x 1..8, a short
// table or short envelope arrays are programming errors, reported rather
// than read past.
func TestEnvelopeSumsPanicsOnShortInput(t *testing.T) {
	tab, q, env := make([]float64, 4<<2), make([]uint8, 4), make([]uint8, 8)
	dst := make([]float64, 2)
	for name, call := range map[string]func(){
		"no segments":    func() { EnvelopeSums(dst, tab, nil, 2, env, env) },
		"17 segments":    func() { EnvelopeSums(dst[:0], make([]float64, 17<<2), make([]uint8, 17), 2, nil, nil) },
		"9 bits":         func() { EnvelopeSums(dst[:0], make([]float64, 4<<9), q, 9, nil, nil) },
		"short table":    func() { EnvelopeSums(dst, tab[:15], q, 2, env, env) },
		"short minima":   func() { EnvelopeSums(dst, tab, q, 2, env[:7], env) },
		"short maxima":   func() { EnvelopeSums(dst, tab, q, 2, env, env[:7]) },
		"third envelope": func() { EnvelopeSums(make([]float64, 3), tab, q, 2, env, env) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzEnvelopeSums cross-checks EnvelopeSums against envelopePlain on
// arbitrary bytes: raw holds the query's w symbols, then the minima and the
// maxima of as many envelopes as fit. Every kernel set must give the plain
// sum's bits.
func FuzzEnvelopeSums(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}, uint8(1), uint8(3), int64(1))
	f.Add(make([]byte, 16+2*16*9), uint8(15), uint8(7), int64(2))
	f.Fuzz(func(t *testing.T, raw []byte, w, bits uint8, seed int64) {
		sw, sb := 1+int(w)%EnvelopeSegments, 1+int(bits)%8
		if len(raw) < sw {
			t.Skip()
		}
		q, env := raw[:sw], raw[sw:]
		n := len(env) / (2 * sw)
		mins, maxs := env[:n*sw], env[n*sw:]
		rng := rand.New(rand.NewSource(seed))
		tab := make([]float64, sw<<sb)
		for i := range tab {
			tab[i] = rng.ExpFloat64()
		}
		dst := make([]float64, n)
		defer Select("auto")
		for _, name := range Available() {
			if err := Select(name); err != nil {
				t.Fatal(err)
			}
			EnvelopeSums(dst, tab, q, sb, mins, maxs)
			for i := range dst {
				if got, want := dst[i], envelopePlain(tab, q, sb, mins, maxs, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("kernel %q, %dx%d envelope %d of %d: %x, plain %x", name, sw, sb, i, n, got, want)
				}
			}
		}
	})
}

// symbolTableSum is entry i of a SymbolSums batch as TableSum sees it: its
// masked symbols turned into table indexes, row s at s<<bits — the indexes
// index.Pruner.MinDistSqKey sums for a key of those symbols.
func symbolTableSum(tab []float64, w, bits int, syms []uint8, i int) float64 {
	var idx [EnvelopeSegments]int32
	for s, c := range syms[i*w : (i+1)*w] {
		idx[s] = int32(s<<bits | int(c)&(1<<bits-1))
	}
	return TableSum(tab, idx[:w])
}

// TestSymbolSumsKernelsBitIdentical: on every kernel set, SymbolSums gives
// TableSum's bits for every entry, on every shape a summary may have (1..16
// segments x 1..8 bits), every batch length 0..19, and arbitrary bytes for
// the symbols, those past the cardinality included.
func TestSymbolSumsKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tab := make([]float64, EnvelopeSegments<<8)
	for i := range tab {
		tab[i] = rng.ExpFloat64() * 10
	}
	const maxN = 19
	syms := make([]uint8, maxN*EnvelopeSegments)
	dst := make([]float64, maxN)
	for w := 1; w <= EnvelopeSegments; w++ {
		for bits := 1; bits <= 8; bits++ {
			for i := range syms {
				syms[i] = uint8(rng.Intn(256))
			}
			for n := 0; n <= maxN; n++ {
				withKernel(t, func(t *testing.T, name string) {
					clear(dst)
					SymbolSums(dst[:n], tab[:w<<bits], w, bits, syms[:n*w])
					for i := 0; i < n; i++ {
						if got, want := dst[i], symbolTableSum(tab, w, bits, syms, i); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%dx%d n=%d entry %d: %x, TableSum %x", w, bits, n, i, got, want)
						}
					}
				})
			}
		}
	}
}

// TestSymbolSumsPanicsOnShortInput: a shape outside 1..16 x 1..8, a short
// table or a short symbol array are programming errors, reported rather than
// read past.
func TestSymbolSumsPanicsOnShortInput(t *testing.T) {
	tab, syms, dst := make([]float64, 4<<2), make([]uint8, 8), make([]float64, 2)
	for name, call := range map[string]func(){
		"no segments":  func() { SymbolSums(dst, tab, 0, 2, syms) },
		"17 segments":  func() { SymbolSums(dst[:0], make([]float64, 17<<2), 17, 2, nil) },
		"9 bits":       func() { SymbolSums(dst[:0], make([]float64, 4<<9), 4, 9, nil) },
		"short table":  func() { SymbolSums(dst, tab[:15], 4, 2, syms) },
		"short column": func() { SymbolSums(dst, tab, 4, 2, syms[:7]) },
		"third entry":  func() { SymbolSums(make([]float64, 3), tab, 4, 2, syms) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzSymbolSums cross-checks SymbolSums against TableSum on arbitrary
// bytes: raw holds as many entries of w symbols as fit. Every kernel set
// must give TableSum's bits.
func FuzzSymbolSums(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}, uint8(3), uint8(2), int64(1))
	f.Add(make([]byte, 16*5), uint8(15), uint8(7), int64(2))
	f.Fuzz(func(t *testing.T, raw []byte, w, bits uint8, seed int64) {
		sw, sb := 1+int(w)%EnvelopeSegments, 1+int(bits)%8
		n := len(raw) / sw
		rng := rand.New(rand.NewSource(seed))
		tab := make([]float64, sw<<sb)
		for i := range tab {
			tab[i] = rng.ExpFloat64()
		}
		dst := make([]float64, n)
		defer Select("auto")
		for _, name := range Available() {
			if err := Select(name); err != nil {
				t.Fatal(err)
			}
			SymbolSums(dst, tab, sw, sb, raw)
			for i := range dst {
				if got, want := dst[i], symbolTableSum(tab, sw, sb, raw, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("kernel %q, %dx%d entry %d of %d: %x, TableSum %x", name, sw, sb, i, n, got, want)
				}
			}
		}
	})
}

// TestDecode pins the decode entry point against the encoding.
func TestDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{0, 1, 7, 8, 63, 256} {
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		buf := encode(want)
		got := make([]float64, n)
		Decode(buf, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d i=%d: %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestSelect pins the dispatch API: unknown names error, scalar always
// selects, auto restores the detected default, and Active reports what was
// chosen.
func TestSelect(t *testing.T) {
	defer Select("auto")
	if err := Select("scalar"); err != nil {
		t.Fatal(err)
	}
	if Active() != KernelScalar {
		t.Fatalf("Active=%q after Select(scalar)", Active())
	}
	if err := Select("no-such-set"); err == nil {
		t.Fatal("Select(no-such-set) succeeded")
	}
	if Active() != KernelScalar {
		t.Fatalf("failed Select changed Active to %q", Active())
	}
	for _, name := range Available() {
		if err := Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		if Active() != name {
			t.Fatalf("Active=%q after Select(%q)", Active(), name)
		}
	}
	if err := Select("auto"); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTest re-runs the init self-test when an accelerated set is
// active: it must hold at runtime, not just at init.
func TestSelfTest(t *testing.T) {
	if !archSupported() {
		t.Skip("no accelerated kernels on this architecture")
	}
	if !selfTest() {
		t.Fatal("self-test failed")
	}
}

// FuzzSqDistEncoded cross-checks the fused-decode kernel against
// decode-then-distance on arbitrary byte payloads (NaNs, infinities,
// denormals included): the two must agree bit-for-bit on every kernel set.
func FuzzSqDistEncoded(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(1), math.Inf(1))
	f.Add(make([]byte, 128), int64(9), 3.5)
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, limit float64) {
		n := len(raw) / 8
		if n == 0 || n > 600 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		q := make([]float64, n)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		dec := make([]float64, n)
		Decode(raw, dec)
		defer Select("auto")
		var first uint64
		for i, name := range Available() {
			if err := Select(name); err != nil {
				t.Fatal(err)
			}
			enc := math.Float64bits(SqDistEncoded(q, raw, limit))
			plain := math.Float64bits(SqDist(q, dec, limit))
			if enc != plain {
				t.Fatalf("kernel %q: encoded %x vs plain %x", name, enc, plain)
			}
			if i == 0 {
				first = enc
			} else if enc != first {
				t.Fatalf("kernel %q differs: %x vs %x", name, enc, first)
			}
		}
	})
}
