package table

import (
	"strings"
	"testing"
)

func TestRenderAligned(t *testing.T) {
	tb := New("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name ") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.5") {
		t.Fatalf("row = %q", lines[2])
	}
	if !strings.Contains(lines[3], "42") || strings.Contains(lines[3], "42.0") {
		t.Fatalf("integral float should render as integer: %q", lines[3])
	}
}

func TestNumRows(t *testing.T) {
	tb := New("a")
	if tb.NumRows() != 0 {
		t.Fatalf("empty table has rows")
	}
	tb.AddRow(1)
	if tb.NumRows() != 1 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestRenderCSV(t *testing.T) {
	tb := New("a", "b")
	tb.AddRow("x,y", "plain")
	tb.AddRow("quote\"inside", 3.25)
	var b strings.Builder
	tb.RenderCSV(&b)
	out := b.String()
	if !strings.Contains(out, "\"x,y\"") {
		t.Fatalf("comma field not quoted: %s", out)
	}
	if !strings.Contains(out, "\"quote\"\"inside\"") {
		t.Fatalf("quote not escaped: %s", out)
	}
	if !strings.Contains(out, "3.25") {
		t.Fatalf("value missing: %s", out)
	}
}

func TestMixedTypes(t *testing.T) {
	tb := New("col")
	tb.AddRow(7)
	tb.AddRow("s")
	tb.AddRow(1.25)
	out := tb.String()
	for _, want := range []string{"7", "s", "1.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHeatmapRender(t *testing.T) {
	h := &Heatmap{
		RowLabel: "s", ColLabel: "k",
		Rows:   []string{"0.0", "1.0"},
		Cols:   []string{"1", "2", "3"},
		Values: [][]float64{{0, 50, 100}, {100, 100, 100}},
		Lo:     0, Hi: 100,
	}
	out := h.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Row 0: lightest, middle, darkest shades.
	if !strings.HasPrefix(lines[1], "0.0 ") {
		t.Fatalf("row label missing: %q", lines[1])
	}
	cells := strings.TrimPrefix(lines[1], "0.0 ")
	if cells[0] != ' ' || cells[2] != '@' {
		t.Fatalf("shading wrong: %q", cells)
	}
	if !strings.Contains(out, "scale:") {
		t.Fatalf("legend missing")
	}
}

func TestHeatmapBinEdgeTolerance(t *testing.T) {
	// 100 computed as a float sum may land an ulp below Hi; it is still the
	// top bin. Values clearly inside a bin keep their glyph.
	h := &Heatmap{
		Rows: []string{"r"}, Cols: []string{"a", "b", "c"},
		Values: [][]float64{{100 * (1 - 1e-15), 100 * 8.5 / 9, 100 * (1 - 1e-6)}},
		Lo:     0, Hi: 100,
	}
	lines := strings.Split(h.String(), "\n")
	if got := strings.TrimPrefix(lines[1], "r "); got != "@%%" {
		t.Fatalf("cells = %q, want \"@%%%%\"", got)
	}
}

func TestHeatmapAutoScaleAndClamp(t *testing.T) {
	h := &Heatmap{
		Rows: []string{"a"}, Cols: []string{"x", "y"},
		Values: [][]float64{{2, 4}},
	}
	out := h.String()
	if !strings.Contains(out, "= 2") || !strings.Contains(out, "= 4") {
		t.Fatalf("auto scale legend wrong:\n%s", out)
	}
	// Constant matrix must not divide by zero.
	hc := &Heatmap{Rows: []string{"a"}, Cols: []string{"x"}, Values: [][]float64{{5}}}
	if s := hc.String(); !strings.Contains(s, "scale:") {
		t.Fatalf("constant heatmap broken:\n%s", s)
	}
}
