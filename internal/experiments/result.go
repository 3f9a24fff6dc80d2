package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Result is one experiment's printable output plus its headline metrics
// for EXPERIMENTS.md.
type Result struct {
	ID     string // "fig2a", "sec3-cpi", ...
	Title  string
	Header []string
	Rows   [][]string
	// Metrics holds headline numbers keyed by short names
	// ("avg_aae" → 0.046).
	Metrics map[string]float64
	Notes   []string
}

// Metric records a headline number.
func (r *Result) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("-- headline: ")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%.4g", k, r.Metrics[k])
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// pct formats a fraction as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// f2 formats a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
