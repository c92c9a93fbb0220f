package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/series"
)

// bufferFixture adds n random walks to a buffer under cfg, entry i with ID i
// at a timestamp that rises with i but not strictly (i plus up to 4), and
// returns the buffer beside the raw store of the z-normalized walks.
func bufferFixture(t *testing.T, rng *rand.Rand, cfg Config, n int) (Buffer, *series.Dataset) {
	t.Helper()
	ds := series.NewDataset(cfg.SeriesLen)
	b := NewBuffer(cfg)
	for i := 0; i < n; i++ {
		s := make(series.Series, cfg.SeriesLen)
		v := 0.0
		for j := range s {
			v += rng.NormFloat64()
			s[j] = v
		}
		key, z := cfg.Summarize(s)
		e := record.Entry{Key: key, ID: int64(i), TS: int64(i + rng.Intn(5))}
		if cfg.Materialized {
			e.Payload = z
		}
		b.Add(e)
		if _, err := ds.Append(z); err != nil {
			t.Fatal(err)
		}
	}
	return b, ds
}

// bufferEval is one EvalPage of a buffer page: what it returned and what it
// left in the collector, the trace and the raw store.
type bufferEval struct {
	n       int
	results []Result
	cands   obs.CandidateCounts
	fetches []int64
}

func evalBuffer(t *testing.T, q Query, cfg Config, pg Page, ds *series.Dataset, col *Collector) bufferEval {
	t.Helper()
	q.Trace = obs.NewQueryTrace()
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	raw := &fetchLog{RawStore: ds}
	n, err := EvalPage(&q, &pg, raw, col, ctx.Scratch0())
	if err != nil {
		t.Fatal(err)
	}
	snap := q.Trace.Snapshot(new(obs.Tally))
	if snap.UndecodedPages != 0 {
		t.Fatalf("a buffer counted %d pages released undecoded", snap.UndecodedPages)
	}
	return bufferEval{n: n, results: col.Results(), cands: snap.Candidates, fetches: raw.ids}
}

// TestBufferColumnBounds: a write buffer's page, bounded from the symbol
// column filled at insert, evaluates as the keyed page of all its entries
// does — the same window survivors, results, trace candidate counts and,
// key-only, raw fetches in the same order — on every shape, materialized or
// not, windowed or not; its bounds are MinDistSqKey's bit for bit; a window
// that misses the buffer bounds nothing; and a buffer pruned whole counts
// no page released undecoded.
func TestBufferColumnBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 300
	for _, shape := range [][2]int{{16, 8}, {8, 8}, {16, 4}, {10, 6}} {
		for _, materialized := range []bool{false, true} {
			cfg := Config{SeriesLen: 80, Segments: shape[0], Bits: shape[1], Materialized: materialized}
			t.Run(fmt.Sprintf("%dx%d/materialized=%v", shape[0], shape[1], materialized), func(t *testing.T) {
				b, ds := bufferFixture(t, rng, cfg, n)
				ents := b.Entries()
				keyed := Page{n: len(ents), ents: ents, arrivals: true} // every entry bounded from its key

				_, far := bufferFixture(t, rng, cfg, 1) // a walk that is no entry
				q0 := NewQuery(far.Values[0], cfg)
				ctx := AcquireCtx(q0, cfg)
				sc := ctx.Scratch0()
				whole := b.Page(&q0)
				if whole.n != n {
					t.Fatalf("unwindowed page of %d entries, want %d", whole.n, n)
				}
				least := math.Inf(1)
				for i, lb := range sc.entryBounds(whole.syms) {
					want := sc.P.MinDistSqKey(ents[i].Key)
					if math.Float64bits(lb) != math.Float64bits(want) {
						t.Fatalf("entry %d: column bound %v, key bound %v", i, lb, want)
					}
					least = math.Min(least, want)
				}
				ctx.Release()

				for trial := 0; trial < 12; trial++ {
					qs := slices.Clone(ds.Values[rng.Intn(n)])
					for j := range qs {
						qs[j] += 0.3 * rng.NormFloat64()
					}
					q := NewQuery(qs, cfg)
					switch trial % 4 {
					case 1: // a window inside the buffer's range
						lo := int64(rng.Intn(n / 2))
						q = q.WithWindow(lo, lo+int64(rng.Intn(n/2)))
					case 2: // a window over the whole buffer
						q = q.WithWindow(-1, n+5)
					case 3: // a window that misses the buffer
						q = q.WithWindow(n+5, 2*n)
					}
					for _, mk := range []func() *Collector{
						func() *Collector { return NewCollector(5) },
						func() *Collector { return NewRangeCollector(4) },
					} {
						want := evalBuffer(t, q, cfg, keyed, ds, mk())
						got := evalBuffer(t, q, cfg, b.Page(&q), ds, mk())
						label := fmt.Sprintf("trial %d window=%v [%d,%d]", trial, q.Windowed, q.MinTS, q.MaxTS)
						if got.n != want.n || got.cands != want.cands {
							t.Fatalf("%s: column saw %d %+v, keys %d %+v", label, got.n, got.cands, want.n, want.cands)
						}
						sameResults(t, label, want.results, got.results)
						if !materialized && !slices.Equal(got.fetches, want.fetches) {
							t.Fatalf("%s: column fetched %v, keys %v", label, got.fetches, want.fetches)
						}
					}
				}

				// A window that misses the buffer's timestamps — before,
				// after, or holding none at all — bounds nothing.
				for _, w := range [][2]int64{{-10, -1}, {n + 5, 2 * n}, {7, 6}} {
					q := q0.WithWindow(w[0], w[1])
					ctx := AcquireCtx(q, cfg)
					sc := ctx.Scratch0()
					sc.lbs = nil
					pg := b.Page(&q)
					seen, err := EvalPage(&q, &pg, ds, NewCollector(5), sc)
					if err != nil || seen != 0 || pg.syms != nil || cap(sc.lbs) != 0 {
						t.Fatalf("window %v: %d seen (err %v), %d symbol bytes, %d bounds computed", w, seen, err, len(pg.syms), cap(sc.lbs))
					}
					ctx.Release()
				}

				// A window inside the buffer bounds only the stretch from its
				// first in-window entry to its last.
				q := q0.WithWindow(100, 140)
				pg := b.Page(&q)
				first := slices.IndexFunc(ents, func(e record.Entry) bool { return e.TS >= 100 && e.TS <= 140 })
				if pg.n == 0 || pg.ents[0].ID != int64(first) || len(pg.syms) != pg.n*cfg.Segments ||
					pg.ents[0].TS < 100 || pg.ents[pg.n-1].TS > 140 {
					t.Fatalf("window [100,140]: a page of %d entries from ID %d, want the in-window stretch from %d", pg.n, pg.ents[0].ID, first)
				}

				// Pruned whole, unwindowed, the buffer is resident to the
				// evaluator, but no page: evalBuffer fails on an undecoded one.
				if least == 0 {
					t.Fatal("fixture: an entry shares the query's cell, nothing bounds it away")
				}
				col := NewCollector(1)
				col.AddSq(-1, 0, least/2)
				if got := evalBuffer(t, q0, cfg, whole, ds, col); got.cands.Pruned != n || got.cands.Verified != 0 {
					t.Fatalf("a buffer ruled out whole: %+v", got.cands)
				}
			})
		}
	}
}

// TestBufferDropKeepsColumn: dropping a written-out prefix drops its
// symbols too, a snapshot taken before keeps all of its own, entries added
// after the drop land in step with their symbols, and a window over the
// dropped entries alone finds none.
func TestBufferDropKeepsColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := Config{SeriesLen: 80, Segments: 10, Bits: 6}
	b, ds := bufferFixture(t, rng, cfg, 64)
	snap := b // a published snapshot
	b.Drop(40)
	lo := b.Entries()[0].TS
	for _, e := range b.Entries() {
		lo = min(lo, e.TS)
	}
	more, _ := bufferFixture(t, rng, cfg, 8)
	for _, e := range more.Entries() {
		e.ID, e.TS = e.ID+1000, e.TS+1000
		b.Add(e)
	}
	q := NewQuery(ds.Values[3], cfg)
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	sc := ctx.Scratch0()
	for _, c := range []struct {
		name string
		b    Buffer
		n    int
	}{{"snapshot", snap, 64}, {"dropped and added to", b, 32}} {
		pg := c.b.Page(&q)
		if pg.n != c.n || len(pg.syms) != c.n*cfg.Segments {
			t.Fatalf("%s: %d entries, %d symbol bytes, want %d entries", c.name, pg.n, len(pg.syms), c.n)
		}
		for i, lb := range sc.entryBounds(pg.syms) {
			if want := sc.P.MinDistSqKey(pg.ents[i].Key); math.Float64bits(lb) != math.Float64bits(want) {
				t.Fatalf("%s entry %d: column bound %v, key bound %v", c.name, i, lb, want)
			}
		}
	}
	if q := q.WithWindow(0, lo-1); b.Page(&q).n != 0 {
		t.Fatalf("a window over the dropped entries alone matched %d left", b.Page(&q).n)
	}
}
