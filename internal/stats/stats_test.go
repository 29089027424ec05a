package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesAddAndMax(t *testing.T) {
	var s Series
	s.Add(1, 10, "a")
	s.Add(2, 30, "b")
	s.Add(3, 20, "c")
	v, i := s.Max()
	if v != 30 || i != 1 {
		t.Fatalf("Max = (%v, %d)", v, i)
	}
}

func TestSeriesEmptyMax(t *testing.T) {
	var s Series
	if _, i := s.Max(); i != -1 {
		t.Fatal("empty Max should return -1")
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.AddRow("a", "1")
	tb.AddRow("long-name", "22")
	var buf bytes.Buffer
	tb.Render(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4", len(lines))
	}
	// All value columns start at the same offset.
	off := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][off:], "1") || !strings.HasPrefix(lines[3][off:], "22") {
		t.Fatalf("misaligned table:\n%s", buf.String())
	}
}

func TestSeriesTable(t *testing.T) {
	a := Series{Label: "A"}
	a.Add(1, 10, "")
	a.Add(2, 20, "x")
	b := Series{Label: "B"}
	b.Add(2, 5, "")
	tb := SeriesTable("n", []Series{a, b})
	if len(tb.Header) != 3 || tb.Header[1] != "A" {
		t.Fatalf("header %v", tb.Header)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tb.Rows))
	}
	// x=2 row must hold both series, with the note attached.
	if tb.Rows[1][1] != "20 (x)" || tb.Rows[1][2] != "5" {
		t.Fatalf("row %v", tb.Rows[1])
	}
	// x=1 row has an empty B cell.
	if tb.Rows[0][2] != "" {
		t.Fatalf("row %v", tb.Rows[0])
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		1536:    "1536",
		3.14159: "3.14",
		0.001:   "0.001",
	}
	for v, want := range cases {
		if got := FormatNum(v); got != want {
			t.Fatalf("FormatNum(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestChartRenders(t *testing.T) {
	s := Series{Label: "gf"}
	for _, x := range []float64{12, 48, 192, 768} {
		s.Add(x, x*1.5, "")
	}
	var buf bytes.Buffer
	Chart(&buf, "test chart", []Series{s}, 40, 8)
	out := buf.String()
	if !strings.Contains(out, "test chart") || !strings.Contains(out, "log scale") {
		t.Fatalf("chart output missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no data points plotted")
	}
}

func TestChartEmpty(t *testing.T) {
	var buf bytes.Buffer
	Chart(&buf, "empty", nil, 40, 8)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty chart should say so")
	}
}

func TestWriteMarkdown(t *testing.T) {
	tb := Table{Header: []string{"a", "b|c"}}
	tb.AddRow("1", "2")
	var sb strings.Builder
	tb.WriteMarkdown(&sb)
	want := "| a | b\\|c |\n|---|---|\n| 1 | 2 |\n"
	if sb.String() != want {
		t.Fatalf("got:\n%q\nwant:\n%q", sb.String(), want)
	}
}
