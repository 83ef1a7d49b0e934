package plot

import (
	"math"
	"strings"
	"testing"

	"p2psize/internal/metrics"
)

func mkSeries(name string, pts ...float64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i := 0; i+1 < len(pts); i += 2 {
		s.Append(pts[i], pts[i+1])
	}
	return s
}

func TestWriteDAT(t *testing.T) {
	var b strings.Builder
	a := mkSeries("alpha", 0, 1, 1, 2)
	c := mkSeries("beta", 0, 3)
	if err := WriteDAT(&b, a, c); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# alpha", "0 1", "1 2", "# beta", "0 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Two blank lines between blocks (gnuplot index separator).
	if !strings.Contains(out, "\n\n\n# beta") && !strings.Contains(out, "2\n\n\n# beta") {
		t.Fatalf("missing gnuplot block separator:\n%q", out)
	}
}

func TestWriteDATSkipsNaN(t *testing.T) {
	s := mkSeries("s", 0, 1)
	s.Append(1, math.NaN())
	s.Append(2, 5)
	var b strings.Builder
	if err := WriteDAT(&b, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "NaN") {
		t.Fatalf("NaN leaked into output:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "2 5") {
		t.Fatal("point after NaN missing")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	a := mkSeries("real,size", 0, 100, 1, 110)
	c := mkSeries("est", 0, 95)
	c.Append(1, math.NaN())
	if err := WriteCSV(&b, a, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != `x,"real,size",est` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,100,95" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "1,110," {
		t.Fatalf("row 2 (NaN cell) = %q", lines[2])
	}
}

func TestWriteCSVEmptyAndMismatched(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatal("empty CSV wrote bytes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series lengths did not panic")
		}
	}()
	WriteCSV(&b, mkSeries("a", 0, 1), mkSeries("b", 0, 1, 1, 2))
}

func TestASCIIBasics(t *testing.T) {
	s := mkSeries("ramp", 0, 0, 1, 1, 2, 2, 3, 3)
	out := ASCII(20, 5, s)
	if out == "" {
		t.Fatal("empty chart")
	}
	if !strings.Contains(out, "ramp") {
		t.Fatal("legend missing")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no glyphs plotted")
	}
	// Ramp: glyph in first and last column region.
	lines := strings.Split(out, "\n")
	if len(lines) < 7 {
		t.Fatalf("chart too short:\n%s", out)
	}
}

func TestASCIIEmptySeries(t *testing.T) {
	if out := ASCII(20, 5, &metrics.Series{Name: "empty"}); out != "" {
		t.Fatalf("chart for empty series: %q", out)
	}
	s := mkSeries("allnan")
	s.Append(0, math.NaN())
	if out := ASCII(20, 5, s); out != "" {
		t.Fatal("chart for all-NaN series")
	}
}

func TestASCIIConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	s := mkSeries("flat", 0, 5, 1, 5, 2, 5)
	if out := ASCII(20, 5, s); out == "" {
		t.Fatal("flat series not rendered")
	}
}

func TestASCIIMultipleGlyphs(t *testing.T) {
	a := mkSeries("a", 0, 0, 1, 1)
	b := mkSeries("b", 0, 1, 1, 0)
	out := ASCII(30, 8, a, b)
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("expected two glyphs:\n%s", out)
	}
}

func TestTableText(t *testing.T) {
	tb := &Table{
		Title:   "Table I",
		Headers: []string{"Algorithm", "Overhead"},
	}
	tb.AddRow("S&C", "0.5M")
	tb.AddRow("Aggregation", "10M")
	txt := tb.Text()
	for _, want := range []string{"Table I", "Algorithm", "Aggregation", "10M"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text missing %q:\n%s", want, txt)
		}
	}
}

func TestTableRowWidthPanics(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("bad row width did not panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestFormatCount(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{480000, "480k"},
		{500000, "500k"},
		{2500000, "2.5M"},
		{10000000, "10M"},
		{999, "999"},
		{1500000000, "1.5G"},
	}
	for _, c := range cases {
		if got := FormatCount(c.in); got != c.want {
			t.Fatalf("FormatCount(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}
