package report

import (
	"strings"
	"testing"
)

func TestTableAligned(t *testing.T) {
	out := Table([]string{"name", "v"}, [][]string{
		{"alpha", "1"},
		{"b", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d:\n%s", len(lines), out)
	}
	// All rows share the header's width.
	if len(lines[1]) < len("name") {
		t.Fatal("separator too short")
	}
	if !strings.HasPrefix(lines[2], "alpha") || !strings.HasPrefix(lines[3], "b    ") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestBarScaling(t *testing.T) {
	out := Bar([]string{"big", "half"}, []float64{1.0, 0.5}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	big := strings.Count(lines[0], "#")
	half := strings.Count(lines[1], "#")
	if big != 10 {
		t.Fatalf("max bar %d, want width 10", big)
	}
	if half != 5 {
		t.Fatalf("half bar %d, want 5", half)
	}
}

func TestBarAllZeros(t *testing.T) {
	out := Bar([]string{"a"}, []float64{0}, 10)
	if strings.Contains(out, "#") {
		t.Fatalf("zero value drew a bar:\n%s", out)
	}
}

func TestGroupedBar(t *testing.T) {
	out := GroupedBar(
		[]string{"b1", "b2"},
		[]string{"com", "edu"},
		map[string][]float64{"com": {0.4, 0.1}, "edu": {0.2, 0.3}},
		20,
	)
	if !strings.Contains(out, "b1") || !strings.Contains(out, "com") {
		t.Fatalf("missing labels:\n%s", out)
	}
	// Largest value (0.4) gets the full width.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "0.400") && strings.Count(line, "#") != 20 {
			t.Fatalf("max bar not full width: %q", line)
		}
	}
}

func TestLines(t *testing.T) {
	s := Series{Name: "f", X: []float64{0, 1, 2}, Y: []float64{0, 1, 0}}
	out := Lines([]Series{s}, 30, 8)
	if !strings.Contains(out, "* = f") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "x: 0 .. 2") {
		t.Fatalf("x range missing:\n%s", out)
	}
	if strings.Count(out, "*") < 3 {
		t.Fatalf("points missing:\n%s", out)
	}
}

func TestLinesEmpty(t *testing.T) {
	if out := Lines(nil, 10, 5); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
}

func TestLinesDegenerateRanges(t *testing.T) {
	// Single point and constant series must not divide by zero.
	s := Series{Name: "c", X: []float64{1, 1}, Y: []float64{2, 2}}
	out := Lines([]Series{s}, 10, 5)
	if !strings.Contains(out, "*") {
		t.Fatalf("constant series not drawn:\n%s", out)
	}
}

func TestSemilogYDropsNonPositive(t *testing.T) {
	s := Series{Name: "d", X: []float64{1, 2, 3}, Y: []float64{10, 0, -1}}
	out := SemilogY(s)
	if len(out.X) != 1 || out.Y[0] != 1 { // log10(10)
		t.Fatalf("semilog %+v", out)
	}
	if !strings.Contains(out.Name, "log10") {
		t.Fatal("name not annotated")
	}
}

func TestF(t *testing.T) {
	if F(0.8848) != "0.885" {
		t.Fatalf("F() = %s", F(0.8848))
	}
}
