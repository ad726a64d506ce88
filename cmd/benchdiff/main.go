// Command benchdiff compares two `go test -bench` outputs and optionally
// fails on regressions — the regression gate of the nightly bench workflow
// (PERFORMANCE.md describes the workflow end to end).
//
//	benchdiff old.txt new.txt
//	benchdiff -gate 'BenchmarkSweep32' -max-regress 10 old.txt new.txt
//	benchdiff -gate 'BenchmarkSweep32' -gate 'BenchmarkSimScreen=25' old.txt new.txt
//	benchdiff -emit bench-results.txt > BENCH_2026-07-27.json
//	benchdiff BENCH_2026-08-07.json bench-results.txt
//
// Either input may be raw bench text or an emitted BENCH_<date>.json
// trajectory, so the committed baselines (PERFORMANCE.md "The committed
// trajectory baseline") diff directly against fresh runs.
//
// Each benchmark present in both files is reported with its old/new ns/op
// and the delta. -gate may be repeated to build a gate list: benchmarks
// whose name matches a gate's regexp and whose ns/op regressed by more than
// that gate's threshold fail the run (exit 1). A gate is either a bare
// regexp (threshold -max-regress) or RE=PCT, which overrides the threshold
// for that gate alone — kernel micro-benchmarks are noisier than end-to-end
// sweeps and get a looser gate without loosening the headline one. The
// first matching gate wins, so order specific gates before broad ones.
// Benchmarks missing from either file are reported but never gated, so
// renaming or adding benchmarks cannot break the nightly job.
//
// -emit takes a single bench output file and writes it to stdout as one
// sorted JSON object mapping benchmark name → ns/op — the machine-readable
// BENCH_<date>.json trajectory artifact the nightly workflow uploads so
// the performance history PERFORMANCE.md narrates is consumable by tools,
// not just by people reading tables.
//
// benchdiff deliberately sticks to the stdlib (no benchstat dependency); the
// workflow runs benchstat separately for the human-readable statistics and
// benchdiff for the machine gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"socbuf/internal/report"
)

// gateSpec is one entry of the gate list: which benchmarks it covers and the
// regression threshold that applies to them. max is NaN when the gate did not
// name its own threshold and should inherit -max-regress.
type gateSpec struct {
	re  *regexp.Regexp
	max float64
}

// gateList implements flag.Value so -gate can be repeated. Each value is a
// regexp, optionally suffixed =PCT to carry a per-gate threshold. The split
// is on the LAST '=' and only when the suffix parses as a number, so regexps
// containing '=' still work as long as they don't end in one.
type gateList []gateSpec

func (g *gateList) String() string {
	parts := make([]string, len(*g))
	for i, s := range *g {
		parts[i] = s.re.String()
		if !math.IsNaN(s.max) {
			parts[i] += fmt.Sprintf("=%g", s.max)
		}
	}
	return strings.Join(parts, ",")
}

func (g *gateList) Set(v string) error {
	expr, max := v, math.NaN()
	if i := strings.LastIndex(v, "="); i >= 0 {
		if pct, err := strconv.ParseFloat(v[i+1:], 64); err == nil {
			expr, max = v[:i], pct
		}
	}
	re, err := regexp.Compile(expr)
	if err != nil {
		return err
	}
	*g = append(*g, gateSpec{re: re, max: max})
	return nil
}

// threshold returns the regression limit for name, or NaN when no gate
// covers it. The first matching gate wins.
func (g gateList) threshold(name string, def float64) float64 {
	for _, s := range g {
		if s.re.MatchString(name) {
			if math.IsNaN(s.max) {
				return def
			}
			return s.max
		}
	}
	return math.NaN()
}

// nsPerOp maps benchmark name to its (last seen) ns/op in one output file.
type nsPerOp map[string]float64

// procSuffix strips the trailing -<GOMAXPROCS> go test appends to benchmark
// names, so runs from machines with different core counts still align.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark results from one input file: either raw
// `go test -bench` output or a BENCH_<date>.json trajectory previously
// written by -emit, so committed baselines diff against fresh runs without
// keeping the raw text around.
func parse(path string) (nsPerOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		out := nsPerOp{}
		if err := json.Unmarshal([]byte(trimmed), &out); err != nil {
			return nil, fmt.Errorf("%s: not a BENCH_<date>.json trajectory: %w", path, err)
		}
		return out, nil
	}
	out := nsPerOp{}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Layout: Name iterations value unit [value unit ...]; ns/op is the
		// first value/unit pair by convention.
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			out[procSuffix.ReplaceAllString(fields[0], "")] = v
			break
		}
	}
	return out, sc.Err()
}

func main() {
	var gates gateList
	flag.Var(&gates, "gate", "regexp of benchmark names that fail the run on regression; repeatable; RE=PCT sets a per-gate threshold")
	var (
		maxRegress = flag.Float64("max-regress", 10, "default allowed ns/op regression percent for gated benchmarks")
		emit       = flag.Bool("emit", false, "emit a single bench output as sorted JSON (benchmark name → ns/op) on stdout")
	)
	flag.Parse()
	if *emit {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -emit results.txt > BENCH_<date>.json")
			os.Exit(2)
		}
		results, err := parse(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		// json.Marshal sorts map keys, so the artifact diffs cleanly
		// run-to-run.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gate RE[=PCT]]... [-max-regress PCT] old.txt new.txt")
		os.Exit(2)
	}
	old, err := parse(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := parse(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	var rows [][]string
	failed := false
	for _, name := range names {
		prev, ok := old[name]
		if !ok {
			rows = append(rows, []string{name, "-", fmt.Sprintf("%.0f", cur[name]), "new", ""})
			continue
		}
		delta := (cur[name] - prev) / prev * 100
		verdict := ""
		if limit := gates.threshold(name, *maxRegress); !math.IsNaN(limit) {
			verdict = "ok"
			if delta > limit {
				verdict = fmt.Sprintf("FAIL >%g%%", limit)
				failed = true
			}
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.0f", prev),
			fmt.Sprintf("%.0f", cur[name]),
			fmt.Sprintf("%+.1f%%", delta),
			verdict,
		})
	}
	gone := make([]string, 0)
	for name := range old {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		rows = append(rows, []string{name, fmt.Sprintf("%.0f", old[name]), "-", "gone", ""})
	}
	if err := report.Table(os.Stdout, []string{"BENCHMARK", "old ns/op", "new ns/op", "delta", "gate"}, rows); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: gated benchmarks regressed past their thresholds")
		os.Exit(1)
	}
}
