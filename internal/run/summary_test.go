package run

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// fuzzSummaryCfg is the shape FuzzDecodeSummary decodes at: testCfg's, at
// 1..8 bits.
func fuzzSummaryCfg(bits uint8) index.Config {
	cfg := testCfg
	cfg.Bits = 1 + int(bits)%8
	return cfg
}

// writtenSummary writes n random walks summarized under cfg as a run, and
// returns its summary's persistent form and entry count.
func writtenSummary(tb testing.TB, cfg index.Config, n int, seed int64) ([]byte, int64) {
	rng := rand.New(rand.NewSource(seed))
	raw := make(normStore, n)
	entries := make([]record.Entry, n)
	for i := range entries {
		key, z := cfg.Summarize(gen.RandomWalk(rng, cfg.SeriesLen))
		raw[i] = z
		entries[i] = record.Entry{Key: key, ID: int64(i), TS: rng.Int63n(1000) - 500}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	s := NewStore(storage.NewDisk(testPageSize), nil, cfg, raw)
	r, err := s.Write("r", entries)
	if err != nil {
		tb.Fatal(err)
	}
	return r.Sum.AppendBinary(nil), r.Count
}

// FuzzDecodeSummary feeds run.DecodeSummary arbitrary bytes, seeded with
// what AppendBinary writes for real runs: it must never panic, and a summary
// it accepts must re-encode to the bytes it was decoded from, with the
// synopsis it returns the fold of its SAX and timestamp columns.
func FuzzDecodeSummary(f *testing.F) {
	for i, seed := range []struct {
		bits uint8
		n    int
	}{{7, 300}, {7, 40}, {2, 120}, {0, 1}} {
		buf, count := writtenSummary(f, fuzzSummaryCfg(seed.bits), seed.n, int64(i))
		if _, _, err := DecodeSummary(buf, fuzzSummaryCfg(seed.bits), count); err != nil {
			f.Fatalf("seed %d: a written summary does not decode: %v", i, err)
		}
		f.Add(buf, seed.bits, count)
	}
	f.Fuzz(func(t *testing.T, buf []byte, bits uint8, count int64) {
		cfg := fuzzSummaryCfg(bits)
		m, syn, err := DecodeSummary(buf, cfg, count)
		if err != nil {
			return
		}
		if got := m.AppendBinary(nil); !bytes.Equal(got, buf) {
			t.Fatalf("decoded %d bytes, re-encoded %d that differ", len(buf), len(got))
		}
		fold := zonestat.New(cfg.Segments, cfg.Bits)
		for _, gr := range m.grp {
			for i, ts := range gr.ts {
				fold.AddSyms(gr.syms[i*cfg.Segments:(i+1)*cfg.Segments], ts)
			}
		}
		if !reflect.DeepEqual(syn, fold) {
			t.Fatalf("decoded synopsis %+v, its columns fold to %+v", syn, fold)
		}
	})
}
