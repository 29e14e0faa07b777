// Package stats provides the small numeric and formatting helpers the
// benchmark harness uses: geometric means (the paper's "ALL" bars),
// normalization, and fixed-width text tables that render each
// table/figure's rows.
package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrEmpty reports an aggregate over no values.
var ErrEmpty = errors.New("stats: empty input")

// ErrNonPositive reports a geometric mean over a zero, negative, or
// non-finite value.
var ErrNonPositive = errors.New("stats: non-positive value")

// Geomean returns the geometric mean of positive values.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("%w: geomean of %g", ErrNonPositive, x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Table renders fixed-width text tables for harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat picks a compact representation: scientific for extremes,
// fixed otherwise.
func formatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.2e", v)
	case av < 10:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
