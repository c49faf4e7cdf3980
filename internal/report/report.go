// Package report renders experiment results as aligned ASCII tables and
// CSV, the output formats of the benchmark harness (cmd/experiments).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"ensemblekit/internal/campaign/accounting"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// FormatFloat renders a float compactly: scientific notation for very
// small or large magnitudes, fixed precision otherwise.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v != v: // NaN
		return "NaN"
	case v < 0:
		return "-" + FormatFloat(-v)
	case v < 1e-3 || v >= 1e6:
		return fmt.Sprintf("%.3e", v)
	case v < 1:
		return fmt.Sprintf("%.4f", v)
	case v < 100:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
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
		fmt.Fprintf(&b, "## %s\n", t.Title)
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
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV with the headers in the first row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Ledger tabulates a job ledger's busy and idle core-seconds by
// component class, with their totals.
func Ledger(l accounting.JobLedger) *Table {
	t := NewTable("Resource accounting (simulated core-seconds)", "class", "busy", "idle", "total")
	for i, sp := range l.Splits() {
		t.AddRow(accounting.Classes()[i], sp.Busy, sp.Idle, sp.Busy+sp.Idle)
	}
	t.AddRow("total", l.Busy(), l.Idle(), l.Total())
	return t
}

// String renders the text form.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.WriteText(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}

// BarChart renders labelled values as horizontal ASCII bars — the form of
// the paper's Figures 3-5 and 8-9.
type BarChart struct {
	Title string
	// Width is the character length of the longest bar.
	Width int
	rows  []barRow
}

type barRow struct {
	label string
	value float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title string, width int) *BarChart {
	if width <= 0 {
		width = 50
	}
	return &BarChart{Title: title, Width: width}
}

// AddBar appends one labelled bar.
func (b *BarChart) AddBar(label string, value float64) {
	b.rows = append(b.rows, barRow{label: label, value: value})
}

// String renders the chart. Bars scale to the maximum value; negative
// values render as empty bars with their numeric value still shown.
func (b *BarChart) String() string {
	var sb strings.Builder
	if b.Title != "" {
		fmt.Fprintf(&sb, "## %s\n", b.Title)
	}
	max := 0.0
	labelWidth := 0
	for _, r := range b.rows {
		if r.value > max {
			max = r.value
		}
		if len(r.label) > labelWidth {
			labelWidth = len(r.label)
		}
	}
	for _, r := range b.rows {
		n := 0
		if max > 0 && r.value > 0 {
			n = int(float64(b.Width) * r.value / max)
			if n == 0 {
				n = 1
			}
		}
		fmt.Fprintf(&sb, "%-*s |%s%s %s\n", labelWidth, r.label,
			strings.Repeat("#", n), strings.Repeat(" ", b.Width-n), FormatFloat(r.value))
	}
	return sb.String()
}

// Gantt renders a simple ASCII timeline: one row per labelled span group,
// used for the Figure 6 stage-timeline reproduction.
type Gantt struct {
	Title string
	// Width is the number of character cells the full time range maps to.
	Width int
	rows  []ganttRow
	tMin  float64
	tMax  float64
	any   bool
}

type ganttRow struct {
	label string
	spans []ganttSpan
}

type ganttSpan struct {
	start, end float64
	glyph      rune
}

// NewGantt creates an empty timeline with the given character width.
func NewGantt(title string, width int) *Gantt {
	if width <= 10 {
		width = 80
	}
	return &Gantt{Title: title, Width: width}
}

// AddRow declares a timeline row.
func (g *Gantt) AddRow(label string) int {
	g.rows = append(g.rows, ganttRow{label: label})
	return len(g.rows) - 1
}

// AddSpan draws [start, end) on row with the given glyph.
func (g *Gantt) AddSpan(row int, start, end float64, glyph rune) {
	if row < 0 || row >= len(g.rows) || end <= start {
		return
	}
	if !g.any || start < g.tMin {
		g.tMin = start
	}
	if !g.any || end > g.tMax {
		g.tMax = end
	}
	g.any = true
	g.rows[row].spans = append(g.rows[row].spans, ganttSpan{start: start, end: end, glyph: glyph})
}

// String renders the timeline.
func (g *Gantt) String() string {
	var b strings.Builder
	if g.Title != "" {
		fmt.Fprintf(&b, "## %s\n", g.Title)
	}
	if !g.any {
		b.WriteString("(empty timeline)\n")
		return b.String()
	}
	span := g.tMax - g.tMin
	if span <= 0 {
		span = 1
	}
	labelWidth := 0
	for _, r := range g.rows {
		if len(r.label) > labelWidth {
			labelWidth = len(r.label)
		}
	}
	for _, r := range g.rows {
		cells := make([]rune, g.Width)
		for i := range cells {
			cells[i] = '.'
		}
		for _, s := range r.spans {
			lo := int(float64(g.Width) * (s.start - g.tMin) / span)
			hi := int(float64(g.Width) * (s.end - g.tMin) / span)
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < g.Width; i++ {
				cells[i] = s.glyph
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", labelWidth, r.label, string(cells))
	}
	fmt.Fprintf(&b, "%-*s  t=%s .. %s\n", labelWidth, "", FormatFloat(g.tMin), FormatFloat(g.tMax))
	return b.String()
}
