// Package plot renders experiment output in the forms the repository
// uses: gnuplot-compatible .dat files (one block per curve, the layout
// the paper's figures were plotted from), CSV for spreadsheet work,
// terminal ASCII charts for quick inspection, and aligned text tables
// for the notes cmd/figures writes to NOTES.md.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"p2psize/internal/metrics"
)

// WriteDAT writes the series as gnuplot data blocks: each series is a
// "# name" comment followed by "x y" lines, with blank-line separators
// ("index" blocks in gnuplot terms). NaN points are skipped.
func WriteDAT(w io.Writer, series ...*metrics.Series) error {
	for i, s := range series {
		if i > 0 {
			if _, err := fmt.Fprint(w, "\n\n"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# %s\n", s.Name); err != nil {
			return err
		}
		for j := range s.X {
			if math.IsNaN(s.Y[j]) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%g %g\n", s.X[j], s.Y[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV writes the series as columns sharing the x axis of the first
// series: header "x,name1,name2,...", one row per x. Series must have
// equal length (it panics otherwise — the experiment runners always
// produce aligned series); NaN renders as an empty cell.
func WriteCSV(w io.Writer, series ...*metrics.Series) error {
	if len(series) == 0 {
		return nil
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			panic("plot: WriteCSV needs equal-length series")
		}
	}
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, "x")
	for _, s := range series {
		cols = append(cols, csvEscape(s.Name))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%g", series[0].X[i]))
		for _, s := range series {
			if math.IsNaN(s.Y[i]) {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%g", s.Y[i]))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// ASCII renders the series as a width×height terminal chart with distinct
// glyphs per series, for the CLI tools and the examples. It returns the
// chart as a string (empty if no drawable point exists).
func ASCII(width, height int, series ...*metrics.Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	var xmin, xmax, ymin, ymax float64
	found := false
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.Y[i]) {
				continue
			}
			if !found {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				found = true
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if !found {
		return ""
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		glyph := glyphs[si%len(glyphs)]
		for i := range s.X {
			if math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			grid[row][col] = glyph
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10.4g ┌%s┐\n", ymax, strings.Repeat("─", width))
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", 10)
		if r == height-1 {
			label = fmt.Sprintf("%10.4g", ymin)
		}
		fmt.Fprintf(&b, "%s │%s│\n", label, grid[r])
	}
	fmt.Fprintf(&b, "%s └%s┘\n", strings.Repeat(" ", 10), strings.Repeat("─", width))
	fmt.Fprintf(&b, "%s  %-*g%*g\n", strings.Repeat(" ", 10), width/2, xmin, width-width/2, xmax)
	for si, s := range series {
		fmt.Fprintf(&b, "%s  %c %s\n", strings.Repeat(" ", 10), glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// Table is a simple named grid for overhead/accuracy summaries (Table I).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; it panics when the width disagrees with Headers.
func (t *Table) AddRow(cells ...string) {
	if len(t.Headers) > 0 && len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("plot: row width %d, header width %d", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Text renders the table with aligned columns for terminal output.
func (t *Table) Text() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total) + "\n")
	}
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// FormatCount renders a message count the way the paper's Table I does
// (e.g. 480000 → "0.5M", 10000000 → "10M").
func FormatCount(n float64) string {
	switch {
	case n >= 1e9:
		return trimZero(fmt.Sprintf("%.1fG", n/1e9))
	case n >= 1e6:
		return trimZero(fmt.Sprintf("%.1fM", n/1e6))
	case n >= 1e3:
		return trimZero(fmt.Sprintf("%.1fk", n/1e3))
	default:
		return fmt.Sprintf("%.0f", n)
	}
}

func trimZero(s string) string {
	return strings.Replace(s, ".0", "", 1)
}
