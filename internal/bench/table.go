// Package bench is the shared benchmark harness behind cmd/llscbench,
// cmd/llscspace and the root bench_test.go: workload generators, latency
// and throughput measurement, space accounting, and table rendering
// (text, CSV, and JSON reports) for the experiments E1-E16 cataloged in
// docs/BENCHMARKS.md.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a plain-text result table.
type Table struct {
	// ID is the experiment's short name (e1, e2, ...), used by the JSON
	// emitter; cmd/llscbench fills it for tables that do not set it.
	ID string
	// Title is printed above the table.
	Title string
	// Note is an optional caption printed under the title.
	Note string
	// Cols are the column headers; Rows hold the cells.
	Cols []string
	Rows [][]string
}

// AddRow appends a row of cells (stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	fmt.Fprintln(w)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	printRow(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FprintCSV renders the table as CSV (header row then data rows) for
// plotting the experiment series.
func (t *Table) FprintCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintln(w, strings.Join(t.Cols, ","))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			cells[i] = c
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}
