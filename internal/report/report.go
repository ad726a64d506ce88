// Package report renders the experiment outputs: ASCII bar charts in the
// shape of the paper's Figure 3 and aligned tables in the shape of Table 1.
package report

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// BarGroup is one x-axis position (one processor) with one value per series.
type BarGroup struct {
	Label  string
	Values []float64
}

// BarChart renders grouped horizontal bars, one row per series entry,
// scaled to width characters.
func BarChart(w io.Writer, title string, series []string, groups []BarGroup, width int) error {
	if width < 10 {
		return errors.New("report: chart width too small")
	}
	if len(groups) == 0 {
		return errors.New("report: no groups")
	}
	var maxVal float64
	for _, g := range groups {
		if len(g.Values) != len(series) {
			return fmt.Errorf("report: group %q has %d values, want %d", g.Label, len(g.Values), len(series))
		}
		for _, v := range g.Values {
			if v < 0 {
				return fmt.Errorf("report: negative bar value %v in %q", v, g.Label)
			}
			if v > maxVal {
				maxVal = v
			}
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	if maxVal == 0 {
		maxVal = 1
	}
	labelW := 0
	for _, g := range groups {
		if len(g.Label) > labelW {
			labelW = len(g.Label)
		}
	}
	seriesW := 0
	for _, s := range series {
		if len(s) > seriesW {
			seriesW = len(s)
		}
	}
	for _, g := range groups {
		for i, v := range g.Values {
			label := ""
			if i == 0 {
				label = g.Label
			}
			n := int(v / maxVal * float64(width))
			fmt.Fprintf(w, "%-*s %-*s |%s %.4g\n", labelW, label, seriesW, series[i], strings.Repeat("#", n), v)
		}
	}
	return nil
}

// Table renders an aligned text table.
func Table(w io.Writer, headers []string, rows [][]string) error {
	if len(headers) == 0 {
		return errors.New("report: no headers")
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		if len(r) != len(headers) {
			return fmt.Errorf("report: row has %d cells, want %d", len(r), len(headers))
		}
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range rows {
		line(r)
	}
	return nil
}

// SortedKeys returns a map's keys sorted (shared helper for deterministic
// report ordering).
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
