// Package table renders aligned plain-text, Markdown and CSV tables for the
// command-line tools and for the cmd/experiments report. It has no
// knowledge of the experiments themselves.
package table

import (
	"fmt"
	"strings"
)

// Table is a simple rectangular table with a header row. The zero value is
// unusable; construct with New.
type Table struct {
	header []string
	rows   [][]string
}

// New creates a table with the given column headers.
func New(header ...string) *Table {
	return &Table{header: append([]string(nil), header...)}
}

// AddRow appends a row. Rows shorter than the header are padded with empty
// cells; longer rows extend the header with empty column names.
func (t *Table) AddRow(cells ...string) {
	row := append([]string(nil), cells...)
	for len(row) < len(t.header) {
		row = append(row, "")
	}
	for len(t.header) < len(row) {
		t.header = append(t.header, "")
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each cell with fmt.Sprint.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.AddRow(row...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// widths returns the rendered width of each column.
func (t *Table) widths() []int {
	w := make([]int, len(t.header))
	for i, h := range t.header {
		w[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Text renders the table as aligned plain text.
func (t *Table) Text() string {
	w := t.widths()
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", w[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = "---"
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes applied only when a cell
// contains a comma, quote or newline).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString("\"")
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteString("\"")
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// IntsCell formats a list of ints as the paper's Table 1 cells do:
// "7, 8, 9" for several distinct values, "-" for an empty list.
func IntsCell(vals []int) string {
	if len(vals) == 0 {
		return "-"
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ", ")
}
