package workload

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/etables.golden from this run")

// TestETablesGolden renders E1–E12 at small sizes and compares the text with
// testdata/etables.golden. Every column these tables print is a function of
// the data and the plan — costs, pages, counts, recall, decisions — so a
// change that moves one shows up as a diff of the golden file, and
// `go test ./internal/workload -run TestETablesGolden -update` rewrites it.
// E7's table is held; its heat-map art is not.
func TestETablesGolden(t *testing.T) {
	sc := testScale()
	var out strings.Builder
	add := func(tab *Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(tab.String())
		out.WriteByte('\n')
	}
	add(E1Construction(sc, []int{500, 1000}))
	add(E2Query(sc, 1000, 5))
	add(E3Materialization(sc, 1000, []int{1, 100, 10000}))
	add(E4Memory(sc, 1000, []float64{0.01, 0.5}))
	add(E5FillFactor(sc, 1000, 100, 5, []float64{0.5, 1.0}))
	add(E5GrowthFactor(sc, 1000, 5, []int{2, 8}))
	add(E6Streaming(sc, 20, 50, 128, 4))
	e7, _, err := E7Heatmap(sc, 1000, 3)
	add(e7, err)
	add(E8Recommender(), nil)
	add(E9Storage(sc, []int{1000}))
	add(E10Ablation(sc, 1000, 50, 32))
	add(E11Cardinality(sc, 500, 5, []int{1, 4, 8}))
	add(E12Recall(sc, 500, 10))

	path := filepath.Join("testdata", "etables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("E-tables differ from %s (rerun with -update if the change is intended):\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return ""
}
