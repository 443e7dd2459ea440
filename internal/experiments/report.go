// Package experiments regenerates every table and figure of the paper's
// evaluation (Table I, Figures 6-12) as one table (figures) over one
// fixture under one driver (run): the scaled synthetic datasets and their
// preprocessed forms are built once per run and shared, measured cells
// are the product converters' own phase statistics (conv.Result.Stats) —
// a clock is kept only for the kernels that report none — and multi-core
// behaviour is extrapolated with the cluster model (internal/cluster:
// shape only, not validated against a multi-core measurement here).
//
// Each experiment yields a Report that prints as an aligned text table
// with the paper's reference values alongside the reproduced ones.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	ID      string // "table1", "fig6", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && len(cell) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(r.Columns); err != nil {
		return err
	}
	var rule []string
	for _, width := range widths {
		rule = append(rule, strings.Repeat("-", width))
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// fseconds formats seconds compactly.
func fseconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}

// fspeedup formats a speedup factor.
func fspeedup(s float64) string { return fmt.Sprintf("%.2fx", s) }
