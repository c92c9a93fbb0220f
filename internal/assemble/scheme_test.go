package assemble_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
)

// TestSchemeSpecRefusals: a scheme goes over the variant that holds its
// partitions, and a stream is an empty, unpartitioned build without a WAL
// or background compaction; anything else is refused, naming what is wrong.
func TestSchemeSpecRefusals(t *testing.T) {
	base := assemble.Spec{SeriesLen: 64, Segments: 8, Bits: 8, RawInMemory: true}
	with := func(variant, scheme string, tune func(*assemble.Spec)) assemble.Spec {
		s := base
		s.Variant, s.Scheme = variant, scheme
		if tune != nil {
			tune(&s)
		}
		return s
	}
	for _, tc := range []struct {
		spec assemble.Spec
		want string
	}{
		{with("CLSM", "TP", nil), "TP"},
		{with("CLSMFull", "TP", nil), "TP"},
		{with("CTree", "BTP", nil), "BTP"},
		{with("ADS+", "BTP", nil), "BTP"},
		{with("CLSM", "PP", nil), "scheme"},
		{with("CTree", "TP", func(s *assemble.Spec) { s.Shards = 2 }), "shards"},
		{with("CLSM", "BTP", func(s *assemble.Spec) { s.ClusterShards, s.NodeShards = 2, []int{0} }), "shards"},
		{with("CLSM", "BTP", func(s *assemble.Spec) { s.WALDir = t.TempDir() }), "wal_dir"},
		{with("CLSM", "BTP", func(s *assemble.Spec) { s.CompactionWorkers = 1 }), "compaction_workers"},
	} {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s over %s: Validate said %v, want an error naming %q", tc.spec.Scheme, tc.spec.Variant, err, tc.want)
		}
		if b, err := assemble.Build(tc.spec, nil); err == nil {
			b.Close()
			t.Errorf("%s over %s: Build accepted a spec Validate refuses", tc.spec.Scheme, tc.spec.Variant)
		}
	}
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 10, Len: 64, Seed: 1})
	if b, err := assemble.Build(with("CLSM", "BTP", nil), ds); err == nil || !strings.Contains(err.Error(), "empty") {
		if b != nil {
			b.Close()
		}
		t.Errorf("a BTP build over a dataset: %v, want it refused", err)
	}
	lsm, err := assemble.Build(with("CLSM", "", nil), ds)
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	path := t.TempDir() + "/lsm.ccnut"
	if err := lsm.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if b, err := assemble.Open(path, with("CLSM", "BTP", nil)); err == nil || !strings.Contains(err.Error(), "BTP stream") {
		if b != nil {
			b.Close()
		}
		t.Errorf("a CLSM snapshot opened as a BTP stream: %v, want it refused", err)
	}
}

// TestSchemeBuildIsAnIndex: a TP or BTP build answers through Built's
// entries — exact and range within a window, a batch — what brute force over
// the ingested stream finds, and a snapshot of one is refused rather than
// written.
func TestSchemeBuildIsAnIndex(t *testing.T) {
	const n, k = 700, 4
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: n, Len: 64, FracEvent: 0.05, Seed: 5})
	for _, tc := range []struct{ variant, scheme, name string }{
		{"CTree", "TP", "CTree+TP"},
		{"ADSFull", "TP", "ADSFull+TP"},
		{"CLSM", "BTP", "CLSM+BTP"},
	} {
		b, err := assemble.Build(assemble.Spec{Variant: tc.variant, Scheme: tc.scheme, SeriesLen: 64, Segments: 8, Bits: 8, BufferEntries: 64, RawInMemory: true, Parallelism: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if b.Index.Name() != tc.name {
			t.Errorf("an empty %s over %s is named %q, want %q", tc.scheme, tc.variant, b.Index.Name(), tc.name)
		}
		for i, s := range ds.Values {
			if err := b.Ingest(s, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if b.Index.Count() != n || b.Partitions() < 2 {
			t.Fatalf("%s: %d series in %d partitions", tc.name, b.Index.Count(), b.Partitions())
		}
		const lo, hi = 200, 550
		var qs []index.Query
		for _, id := range []int{3, 300, 690} {
			qs = append(qs, index.NewQuery(ds.Values[id], b.Config).WithWindow(lo, hi))
		}
		batch, err := b.SearchBatch(qs, k)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			brute := func(col *index.Collector) []index.Result {
				for id := lo; id <= hi; id++ {
					col.Add(index.Result{ID: int64(id), TS: int64(id), Dist: math.Sqrt(q.Norm.SqDist(ds.Values[id].ZNormalize()))})
				}
				return col.Results()
			}
			want := brute(index.NewCollector(k))
			got, err := b.ExactSearch(q, k)
			if err != nil || !sameIDs(got, want) || !reflect.DeepEqual(batch[qi], got) {
				t.Fatalf("%s query %d: exact %+v (%v), batch %+v, brute force %+v", tc.name, qi, got, err, batch[qi], want)
			}
			eps := want[k-1].Dist
			want = brute(index.NewRangeCollector(eps))
			if got, err := b.RangeSearch(q, eps); err != nil || !sameIDs(got, want) {
				t.Fatalf("%s query %d: range within %v: %+v (%v), brute force %+v", tc.name, qi, eps, got, err, want)
			}
		}
		if err := b.SaveFile(t.TempDir() + "/stream.ccnut"); err == nil {
			t.Errorf("%s: a snapshot of a stream was written", tc.name)
		}
	}
}

// sameIDs reports whether two answers name the same series in order.
func sameIDs(a, b []index.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}
