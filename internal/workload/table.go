// Package workload is the experiment harness shared by cmd/coconut-bench
// and the repository benchmarks: index-variant builders, query drivers,
// metric collection, and the table formatter that regenerates each
// experiment of EXPERIMENTS.md (see DESIGN.md for the experiment index).
package workload

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	ID      string // experiment id, e.g. "E1"
	Title   string
	Note    string // how to read the table / expected shape
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; cells beyond len(Columns) are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
