// Package report renders experiment results as plain-text tables, bar
// charts and line charts, so each cmd/ binary can print recognizable
// versions of the paper's tables and figures to a terminal.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table renders rows with aligned columns.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
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
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Bar renders one horizontal bar chart line per (label, value) pair,
// scaled so the largest value spans width characters.
func Bar(labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	maxVal := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := 0
		if maxVal > 0 {
			n = int(math.Round(v / maxVal * float64(width)))
		}
		fmt.Fprintf(&b, "%-*s | %s %.3f\n", maxLabel, labels[i], strings.Repeat("#", n), v)
	}
	return b.String()
}

// GroupedBar renders a grouped bar chart: for each bucket label, one bar
// per series (e.g. Figure 2(b): buckets = intervals, series = domains).
func GroupedBar(bucketLabels []string, seriesNames []string, values map[string][]float64, width int) string {
	if width <= 0 {
		width = 40
	}
	maxVal := 0.0
	for _, vs := range values {
		for _, v := range vs {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	maxName := 0
	for _, n := range seriesNames {
		if len(n) > maxName {
			maxName = len(n)
		}
	}
	var b strings.Builder
	for bi, bl := range bucketLabels {
		fmt.Fprintf(&b, "%s\n", bl)
		for _, name := range seriesNames {
			vs := values[name]
			if bi >= len(vs) {
				continue
			}
			n := 0
			if maxVal > 0 {
				n = int(math.Round(vs[bi] / maxVal * float64(width)))
			}
			fmt.Fprintf(&b, "  %-*s | %s %.3f\n", maxName, name, strings.Repeat("#", n), vs[bi])
		}
	}
	return b.String()
}

// Series is one named line for Lines.
type Series struct {
	Name string
	X, Y []float64
}

// Lines renders an ASCII line chart of the series over a width x height
// character grid. Y is linear; use SemilogY to plot log-scaled data.
func Lines(series []Series, width, height int) string {
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 18
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if minX > maxX {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := "*+ox#@%&"
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			c := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			r := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - r
			if row >= 0 && row < height && c >= 0 && c < width {
				grid[row][c] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: %.3g .. %.3g\n", minY, maxY)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "x: %.3g .. %.3g\n", minX, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}

// SemilogY transforms a series' Y values to log10 for plotting, dropping
// non-positive points (Figure 6's semilog axes).
func SemilogY(s Series) Series {
	out := Series{Name: s.Name + " (log10)"}
	for i := range s.X {
		if s.Y[i] > 0 {
			out.X = append(out.X, s.X[i])
			out.Y = append(out.Y, math.Log10(s.Y[i]))
		}
	}
	return out
}

// F formats a float compactly.
func F(v float64) string { return fmt.Sprintf("%.3g", v) }
