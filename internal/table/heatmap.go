package table

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Heatmap renders a matrix as an ASCII heat map using a shade ramp, the
// terminal stand-in for the paper's Figure 10 color maps. Rows and columns
// carry labels; values are linearly binned between lo and hi (pass
// lo ≥ hi to auto-scale to the data range).
type Heatmap struct {
	RowLabel, ColLabel string
	Rows, Cols         []string
	Values             [][]float64 // [row][col]
	Lo, Hi             float64
}

// ramp runs from light to dark; values below/above the range clamp.
var ramp = []rune(" .:-=+*#%@")

// Render writes the heat map with its legend.
func (h *Heatmap) Render(w io.Writer) {
	lo, hi := h.Lo, h.Hi
	if lo >= hi {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, row := range h.Values {
			for _, v := range row {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		if !(lo < hi) { // constant matrix
			hi = lo + 1
		}
	}
	shade := func(v float64) rune {
		x := (v - lo) / (hi - lo)
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		// A value within 1e-9 of a bin edge lies on it, so a cell whose
		// exact value is Hi gets the top glyph whatever the rounding of the
		// float sum behind it.
		idx := int(x*float64(len(ramp)-1) + 1e-9)
		return ramp[idx]
	}

	labelW := len(h.RowLabel)
	for _, r := range h.Rows {
		if len(r) > labelW {
			labelW = len(r)
		}
	}
	// Header: column labels vertically compressed to their first character
	// row if longer than one character; print full labels when they fit.
	fmt.Fprintf(w, "%-*s ", labelW, h.RowLabel)
	for _, c := range h.Cols {
		fmt.Fprintf(w, "%s", lastChar(c))
	}
	fmt.Fprintf(w, "  (%s)\n", h.ColLabel)
	for i, r := range h.Rows {
		fmt.Fprintf(w, "%-*s ", labelW, r)
		for j := range h.Cols {
			fmt.Fprintf(w, "%c", shade(h.Values[i][j]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nscale: '%c' = %.3g … '%c' = %.3g\n", ramp[0], lo, ramp[len(ramp)-1], hi)
}

// lastChar returns the final character of a label so multi-digit column
// labels (10, 11, ...) stay one cell wide yet distinguishable.
func lastChar(s string) string {
	if s == "" {
		return " "
	}
	rs := []rune(s)
	return string(rs[len(rs)-1])
}

// String renders to a string.
func (h *Heatmap) String() string {
	var b strings.Builder
	h.Render(&b)
	return b.String()
}
