package workload

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/assemble"
)

// E16Backend compares the two storage backends: every variant builds twice
// — once on the simulated in-memory disk, once on the file-backed page
// store rooted at dir (a fresh temp directory when empty) — and runs the
// same exact k-NN query set against both. Two properties are asserted
// rather than merely reported, failing the experiment instead of
// publishing a wrong table:
//
//   - answers are byte-identical across backends for every variant;
//   - the I/O accounting (sequential/random read/write counts) is
//     identical too — both backends run the same accounting core, so the
//     paper's cost model is preserved on real files.
//
// The table reports per-backend build and query wall time: the simulated
// disk measures pure algorithmic cost, the file backend adds the host
// filesystem, so the ratio localizes where real-I/O time goes.
func E16Backend(sc Scale, n, numQueries, k int, dir string) (*Table, error) {
	sc = sc.defaults()
	if dir == "" {
		tmp, err := os.MkdirTemp("", "coconut-e16-")
		if err != nil {
			return nil, fmt.Errorf("E16: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	t := &Table{
		ID:    "E16",
		Title: fmt.Sprintf("storage backends over N=%d series, %d exact %d-NN queries", n, numQueries, k),
		Note: "sim = simulated in-memory disk (paper-faithful), file = page-aligned host files; " +
			"answers and I/O accounting byte-identical across backends for every variant (verified)",
		Columns: []string{"variant", "io/q", "sim build ms", "file build ms", "sim q/s", "file q/s"},
	}
	ds := sc.dataset(n)
	iqs := sc.walkQueries(sc.Seed+16, numQueries)

	for vi, v := range Variants {
		sim, err := assemble.Build(sc.spec(v, assemble.Spec{}), ds)
		if err != nil {
			return nil, fmt.Errorf("E16 %s sim: %w", v, err)
		}
		file, err := assemble.Build(sc.spec(v, assemble.Spec{
			StorageDir: filepath.Join(dir, fmt.Sprintf("e16-%02d", vi)),
		}), ds)
		if err != nil {
			return nil, fmt.Errorf("E16 %s file: %w", v, err)
		}
		simRes, simQS, err := exactPass(sim, iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E16 %s sim queries: %w", v, err)
		}
		fileRes, fileQS, err := exactPass(file, iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E16 %s file queries: %w", v, err)
		}
		simCost, fileCost := simQS.Cost(sc.Cost), fileQS.Cost(sc.Cost)
		if err := sameResults(simRes, fileRes); err != nil {
			return nil, fmt.Errorf("E16 %s: file backend diverged from simulated disk: %w", v, err)
		}
		if simCost != fileCost {
			return nil, fmt.Errorf("E16 %s: io-cost/query diverged: sim %.1f, file %.1f", v, simCost, fileCost)
		}
		if ss, fs := sim.Disk.Stats(), file.Disk.Stats(); ss != fs {
			return nil, fmt.Errorf("E16 %s: disk accounting diverged: sim %+v, file %+v", v, ss, fs)
		}
		t.AddRow(
			v,
			fmt.Sprintf("%.0f", simCost),
			fmt.Sprintf("%d", sim.BuildTime.Milliseconds()),
			fmt.Sprintf("%d", file.BuildTime.Milliseconds()),
			fmt.Sprintf("%.0f", float64(len(iqs))/simQS.WallTime.Seconds()),
			fmt.Sprintf("%.0f", float64(len(iqs))/fileQS.WallTime.Seconds()),
		)
		if err := file.Close(); err != nil {
			return nil, fmt.Errorf("E16 %s: closing file backend: %w", v, err)
		}
	}
	return t, nil
}
