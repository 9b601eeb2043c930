// Package metrics provides counters, gauges, bounded histograms, a
// live Registry with a plain-text HTTP surface, and plain-text
// table/figure rendering for the experiment harness. All output of
// cmd/fidrbench flows through Table so every reproduced paper artifact
// has a uniform, diffable format; all live telemetry of cmd/fidrd flows
// through Registry so daemon and bench runs emit the same metric names.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Table renders aligned plain-text tables in the style the paper's tables
// and figure data series are reported by the harness.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case float32:
			row[i] = FormatFloat(float64(v))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Note appends a footnote line rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// FormatFloat renders floats compactly: integers without decimals,
// otherwise 3 significant-looking decimals trimmed of trailing zeros.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Bytes pretty-prints a byte count with binary units.
func Bytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := uint64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// GBps formats a bytes-per-second rate as GB/s (decimal gigabytes, as the
// paper reports throughput).
func GBps(bytesPerSec float64) string {
	return fmt.Sprintf("%.1f GB/s", bytesPerSec/1e9)
}

// Pct formats a 0..1 fraction as a percentage.
func Pct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}
