package report

import (
	"strings"
	"testing"
)

func TestBarChart(t *testing.T) {
	var sb strings.Builder
	groups := []BarGroup{
		{Label: "p1", Values: []float64{10, 5}},
		{Label: "p2", Values: []float64{20, 0}},
	}
	if err := BarChart(&sb, "losses", []string{"pre", "post"}, groups, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "losses") || !strings.Contains(out, "p1") || !strings.Contains(out, "post") {
		t.Fatalf("chart output: %s", out)
	}
	// The largest value must render the full width.
	if !strings.Contains(out, strings.Repeat("#", 40)) {
		t.Fatalf("max bar not full width:\n%s", out)
	}
}

func TestBarChartErrors(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "t", []string{"a"}, nil, 40); err == nil {
		t.Fatal("no groups accepted")
	}
	if err := BarChart(&sb, "t", []string{"a"}, []BarGroup{{Label: "x", Values: []float64{1, 2}}}, 40); err == nil {
		t.Fatal("mismatched series accepted")
	}
	if err := BarChart(&sb, "t", []string{"a"}, []BarGroup{{Label: "x", Values: []float64{-1}}}, 40); err == nil {
		t.Fatal("negative value accepted")
	}
	if err := BarChart(&sb, "t", []string{"a"}, []BarGroup{{Label: "x", Values: []float64{1}}}, 2); err == nil {
		t.Fatal("tiny width accepted")
	}
}

func TestBarChartAllZero(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "z", []string{"a"}, []BarGroup{{Label: "x", Values: []float64{0}}}, 20); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	var sb strings.Builder
	err := Table(&sb, []string{"proc", "pre", "post"}, [][]string{
		{"p1", "70", "83"},
		{"p16", "96", "82"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatalf("no separator:\n%s", out)
	}
}

func TestTableErrors(t *testing.T) {
	var sb strings.Builder
	if err := Table(&sb, nil, nil); err == nil {
		t.Fatal("no headers accepted")
	}
	if err := Table(&sb, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("sorted keys = %v", got)
	}
}
