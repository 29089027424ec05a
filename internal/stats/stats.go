// Package stats holds the small numeric and rendering helpers shared by
// the experiment harness: series containers, argmax, aligned text tables,
// and a log-scale ASCII chart used to draw the figures in a terminal.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	Note  []string // optional per-point annotation (e.g. best config)
}

// Add appends a point.
func (s *Series) Add(x, y float64, note string) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Note = append(s.Note, note)
}

// Max returns the maximum Y and its index (-1 if empty).
func (s *Series) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, v := range s.Y {
		if v > best {
			best, idx = v, i
		}
	}
	return best, idx
}

// Table is an aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
}

// WriteMarkdown writes the table as a Markdown table, escaping cell pipes.
func (t *Table) WriteMarkdown(w io.Writer) {
	line := func(cells []string) {
		fmt.Fprint(w, "|")
		for _, c := range cells {
			fmt.Fprintf(w, " %s |", strings.ReplaceAll(c, "|", "\\|"))
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	fmt.Fprintln(w, "|"+strings.Repeat("---|", len(t.Header)))
	for _, r := range t.Rows {
		line(r)
	}
}

// SeriesTable renders several series sharing an X axis as a table: one row
// per distinct X, one column per series.
func SeriesTable(xName string, series []Series) Table {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	t := Table{Header: []string{xName}}
	for _, s := range series {
		t.Header = append(t.Header, s.Label)
	}
	for _, x := range xs {
		row := []string{FormatNum(x)}
		for _, s := range series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = FormatNum(s.Y[i])
					if s.Note[i] != "" {
						cell += " (" + s.Note[i] + ")"
					}
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// WriteCSV writes series sharing an X axis as CSV: a header row, then one
// row per distinct X with one column per series (empty where a series has
// no point).
func WriteCSV(w io.Writer, xName string, series []Series) error {
	t := SeriesTable(xName, series)
	write := func(cells []string) error {
		for i, c := range cells {
			// Strip the note annotations for machine consumption.
			if idx := strings.Index(c, " ("); idx >= 0 {
				c = c[:idx]
			}
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := write(r); err != nil {
			return err
		}
	}
	return nil
}

// FormatNum prints a float compactly: integers without decimals, small
// values with three significant digits.
func FormatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}

// Heatmap renders a 2-D scalar field as ASCII shades, darkest at the
// maximum — enough to watch a wave move through a slice of the domain.
func Heatmap(w io.Writer, title string, nx, ny int, at func(i, j int) float64) {
	ramp := []byte(" .:-=+*#%@")
	lo, hi := math.Inf(1), math.Inf(-1)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := at(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	fmt.Fprintf(w, "%s  (min %s, max %s)\n", title, FormatNum(lo), FormatNum(hi))
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	for j := ny - 1; j >= 0; j-- {
		row := make([]byte, nx)
		for i := 0; i < nx; i++ {
			f := (at(i, j) - lo) / span
			idx := int(f * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			row[i] = ramp[idx]
		}
		fmt.Fprintf(w, "  |%s|\n", string(row))
	}
}

// Chart draws a log-x ASCII chart of the series (Y linear), height rows by
// width columns, with one symbol per series.
func Chart(w io.Writer, title string, series []Series, width, height int) {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 16
	}
	symbols := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '~'}
	minX, maxX := math.Inf(1), math.Inf(-1)
	maxY := math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if s.X[i] < minX {
				minX = s.X[i]
			}
			if s.X[i] > maxX {
				maxX = s.X[i]
			}
			if s.Y[i] > maxY {
				maxY = s.Y[i]
			}
		}
	}
	if math.IsInf(minX, 1) || maxY <= 0 {
		fmt.Fprintf(w, "%s: (no data)\n", title)
		return
	}
	lx := func(x float64) int {
		if maxX == minX {
			return 0
		}
		f := (math.Log(x) - math.Log(minX)) / (math.Log(maxX) - math.Log(minX))
		c := int(f * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		sym := symbols[si%len(symbols)]
		for i := range s.X {
			col := lx(s.X[i])
			row := int((1 - s.Y[i]/maxY) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = sym
		}
	}
	fmt.Fprintf(w, "%s  (y max = %s)\n", title, FormatNum(maxY))
	for _, r := range grid {
		fmt.Fprintf(w, "  |%s\n", string(r))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "   x: %s .. %s (log scale)\n", FormatNum(minX), FormatNum(maxX))
	for si, s := range series {
		fmt.Fprintf(w, "   %c %s\n", symbols[si%len(symbols)], s.Label)
	}
}
