// Package trace provides the measurement utilities the experiment
// harness uses: latency samples with percentile summaries and aligned
// text tables matching the rows EXPERIMENTS.md records.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram collects latency (or any scalar) samples in nanoseconds.
// The zero value is ready to use.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// AddNs records one nanosecond sample.
func (h *Histogram) AddNs(ns int64) { h.Add(float64(ns)) }

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

func (h *Histogram) sortSamples() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100), interpolating
// between samples. It returns NaN with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return math.NaN()
	}
	h.sortSamples()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(h.samples) {
		return h.samples[lo]
	}
	return h.samples[lo]*(1-frac) + h.samples[lo+1]*frac
}

// Mean returns the arithmetic mean, or NaN with no samples.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Min returns the smallest sample, or NaN.
func (h *Histogram) Min() float64 { return h.Percentile(0) }

// Max returns the largest sample, or NaN.
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// Stddev returns the population standard deviation, or NaN.
func (h *Histogram) Stddev() float64 {
	if len(h.samples) == 0 {
		return math.NaN()
	}
	m := h.Mean()
	sum := 0.0
	for _, v := range h.samples {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(h.samples)))
}

// Summary formats mean/p50/p99 in milliseconds, the form the experiment
// tables use.
func (h *Histogram) Summary() string {
	if h.Count() == 0 {
		return "n/a"
	}
	return fmt.Sprintf("mean=%.3fms p50=%.3fms p99=%.3fms",
		h.Mean()/1e6, h.Percentile(50)/1e6, h.Percentile(99)/1e6)
}

// Ms converts a nanosecond quantity to milliseconds for table cells.
func Ms(ns float64) float64 { return ns / 1e6 }

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// Headers returns the column headers (shared; do not modify).
func (t *Table) Headers() []string { return t.headers }

// Rows returns the formatted rows (shared; do not modify). Together with
// Title and Headers it lets consumers re-render a table in another
// format, e.g. the JSON document ftmpbench -json emits.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, hdr := range t.headers {
		widths[i] = len(hdr)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
