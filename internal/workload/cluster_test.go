package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/shard"
)

// clusterQueries derives n probe queries (noisy copies of dataset members)
// as index.Query values.
func clusterQueries(sc Scale, ds *series.Dataset, n int) []index.Query {
	raw, _ := gen.Queries(ds, n, 0.3, sc.Seed+5)
	qs := make([]index.Query, n)
	for i, s := range raw {
		qs[i] = index.NewQuery(s, sc.config())
	}
	return qs
}

// clusterSeries derives n fresh series for insert tests.
func clusterSeries(sc Scale, ds *series.Dataset, n int) []series.Series {
	raw, _ := gen.Queries(ds, n, 0.5, sc.Seed+11)
	return raw
}

// sameResultLists asserts byte-identity between two result lists: same
// IDs, timestamps, and distance bit patterns, in the same order.
func sameResultLists(t *testing.T, label string, got, want []index.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.TS != w.TS || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
			t.Fatalf("%s result %d: got (id %d, ts %d, dist %x), want (id %d, ts %d, dist %x)",
				label, i, g.ID, g.TS, math.Float64bits(g.Dist), w.ID, w.TS, math.Float64bits(w.Dist))
		}
	}
}

// TestClusterGroupSingleNodeEquivalence checks the degenerate cluster — one
// node owning every shard — against the unsharded build: exact and range
// answers must be byte-identical at every logical shard count.
func TestClusterGroupSingleNodeEquivalence(t *testing.T) {
	sc := testScale()
	ds := sc.dataset(300)
	base, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	qs := clusterQueries(sc, ds, 6)
	for _, nsh := range []int{1, 2, 4} {
		all := make([]int, nsh)
		for i := range all {
			all[i] = i
		}
		cb, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
			ClusterShards: nsh, NodeShards: all,
		}), ds)
		if err != nil {
			t.Fatalf("cluster build %d shards: %v", nsh, err)
		}
		if cb.Group == nil {
			t.Fatalf("cluster build %d shards: no Group", nsh)
		}
		if got := cb.Group.Count(); got != int64(ds.Count()) {
			t.Fatalf("cluster build %d shards holds %d series, want %d", nsh, got, ds.Count())
		}
		for _, q := range qs {
			want, err := base.ExactSearch(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cb.ExactSearch(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			sameResultLists(t, "exact", got, want)
			eps := want[len(want)-1].Dist * 1.1
			wantR, err := base.RangeSearch(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			gotR, err := cb.RangeSearch(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameResultLists(t, "range", gotR, wantR)
		}
	}
}

// TestClusterGroupMergeEquivalence splits the shards over two and four
// in-process "nodes" and merges their per-shard collectors the way the
// router does: the merged exact answer must be byte-identical to the
// unsharded one.
func TestClusterGroupMergeEquivalence(t *testing.T) {
	sc := testScale()
	ds := sc.dataset(300)
	base, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	qs := clusterQueries(sc, ds, 6)
	const nsh = 4
	for _, split := range [][][]int{
		{{0, 1}, {2, 3}},
		{{0}, {1}, {2}, {3}},
		{{0, 2}, {1, 3}},
	} {
		nodes := make([]*assemble.Built, len(split))
		for i, owned := range split {
			b, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
				ClusterShards: nsh, NodeShards: owned,
			}), ds)
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
			nodes[i] = b
		}
		for _, q := range qs {
			want, err := base.ExactSearch(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			merged := index.NewCollector(5)
			for _, nb := range nodes {
				col, err := nb.Group.ExactSearchShards(q, 5, nil, nb.Workers(), nb.Planner)
				if err != nil {
					t.Fatal(err)
				}
				merged.Merge(col)
			}
			sameResultLists(t, "merged exact", merged.Results(), want)
		}
	}
}

// TestClusterGroupShardSubsetProbes exercises the router-facing per-shard
// request path: probing shard subsets and rejecting unowned shards.
func TestClusterGroupShardSubsetProbes(t *testing.T) {
	sc := testScale()
	ds := sc.dataset(200)
	b, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
		ClusterShards: 4, NodeShards: []int{0, 2},
	}), ds)
	if err != nil {
		t.Fatal(err)
	}
	qs := clusterQueries(sc, ds, 1)
	if _, err := b.Group.ExactSearchShards(qs[0], 3, []int{1}, b.Workers(), b.Planner); err == nil ||
		!strings.Contains(err.Error(), "does not own") {
		t.Fatalf("unowned shard probe: err = %v", err)
	}
	colBoth, err := b.Group.ExactSearchShards(qs[0], 3, nil, b.Workers(), b.Planner)
	if err != nil {
		t.Fatal(err)
	}
	col0, err := b.Group.ExactSearchShards(qs[0], 3, []int{0}, b.Workers(), b.Planner)
	if err != nil {
		t.Fatal(err)
	}
	col2, err := b.Group.ExactSearchShards(qs[0], 3, []int{2}, b.Workers(), b.Planner)
	if err != nil {
		t.Fatal(err)
	}
	col0.Merge(col2)
	sameResultLists(t, "subset merge", col0.Results(), colBoth.Results())
}

// TestClusterInsertContiguity checks the replica-write discipline: dense
// router-assigned IDs are accepted, anything else — an unowned shard, a
// repeat, or an ID that skips the shard's next expected one — fails loudly.
func TestClusterInsertContiguity(t *testing.T) {
	sc := testScale()
	ds := sc.dataset(200)
	const nsh = 4
	b, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
		ClusterShards: nsh, NodeShards: []int{0, 1, 2, 3},
	}), ds)
	if err != nil {
		t.Fatal(err)
	}
	extra := clusterSeries(sc, ds, 8)

	// Dense IDs continuing from the build apply cleanly.
	next := int64(ds.Count())
	for i := 0; i < 5; i++ {
		if err := b.ClusterInsert(next, extra[i%len(extra)], 100+int64(i)); err != nil {
			t.Fatalf("dense insert id %d: %v", next, err)
		}
		next++
	}
	if got := b.Group.Count(); got != int64(ds.Count())+5 {
		t.Fatalf("count %d after inserts, want %d", got, ds.Count()+5)
	}

	// Re-inserting an applied ID is non-ascending.
	if err := b.ClusterInsert(next-1, extra[0], 200); err == nil ||
		!strings.Contains(err.Error(), "not ascending") {
		t.Fatalf("repeat insert: err = %v", err)
	}
	// Skipping the shard's next expected ID means this replica missed a
	// write: rejected, so the router can mark it stale.
	si := shard.Of(next, nsh)
	skipped := next + 1
	for shard.Of(skipped, nsh) != si {
		skipped++
	}
	if err := b.ClusterInsert(skipped, extra[1], 201); err == nil ||
		!strings.Contains(err.Error(), "missed a write") {
		t.Fatalf("skipping insert: err = %v", err)
	}

	// A node owning a subset rejects IDs placed elsewhere.
	sub, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
		ClusterShards: nsh, NodeShards: []int{0},
	}), ds)
	if err != nil {
		t.Fatal(err)
	}
	foreign := int64(ds.Count())
	for shard.Of(foreign, nsh) == 0 {
		foreign++
	}
	if err := sub.ClusterInsert(foreign, extra[2], 202); err == nil ||
		!strings.Contains(err.Error(), "not owned") {
		t.Fatalf("foreign shard insert: err = %v", err)
	}
}

// TestClusterInsertSearchable checks inserted series are found with their
// timestamps, identically to the same inserts on an unsharded build.
func TestClusterInsertSearchable(t *testing.T) {
	sc := testScale()
	ds := sc.dataset(200)
	base, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
		ClusterShards: 4, NodeShards: []int{0, 1, 2, 3},
	}), ds)
	if err != nil {
		t.Fatal(err)
	}
	extra := clusterSeries(sc, ds, 10)
	next := int64(ds.Count())
	for i, s := range extra {
		ts := 500 + int64(i)
		if err := base.Ingest(s, ts); err != nil {
			t.Fatal(err)
		}
		if err := cb.ClusterInsert(next, s, ts); err != nil {
			t.Fatal(err)
		}
		next++
	}
	qs := clusterQueries(sc, ds, 4)
	for _, q := range qs {
		want, err := base.ExactSearch(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cb.ExactSearch(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResultLists(t, "post-insert exact", got, want)
		// Windowed to the inserted range: only the new series qualify.
		wq := q.WithWindow(500, 600)
		want, err = base.ExactSearch(wq, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err = cb.ExactSearch(wq, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResultLists(t, "windowed exact", got, want)
		for _, r := range got {
			if r.TS < 500 || r.TS > 600 {
				t.Fatalf("windowed result ts %d outside [500, 600]", r.TS)
			}
		}
	}
}

// TestClusterBuildValidation checks cluster build option validation.
func TestClusterBuildValidation(t *testing.T) {
	sc := testScale()
	ds := sc.dataset(50)
	for _, tc := range []struct {
		name string
		opts assemble.Spec
		want string
	}{
		{"no node shards", assemble.Spec{ClusterShards: 4}, "node_shards"},
		{"shard out of range", assemble.Spec{ClusterShards: 2, NodeShards: []int{2}}, "outside"},
		{"duplicate shard", assemble.Spec{ClusterShards: 2, NodeShards: []int{1, 1}}, "twice"},
		{"conflict with shards", assemble.Spec{ClusterShards: 2, NodeShards: []int{0}, Shards: 2}, "shards must stay unset"},
		{"missing cluster shards", assemble.Spec{NodeShards: []int{0}}, "cluster_shards"},
	} {
		if _, err := assemble.Build(sc.spec("CTreeFull", tc.opts), ds); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
