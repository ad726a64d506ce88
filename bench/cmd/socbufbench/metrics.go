package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// decl declares one printed metric and its unit. BENCHMARK.json declares
// the same names and units; a test keeps the two in step.
type decl struct{ name, unit string }

// endToEnd is what a client of the service sees, measured with tracing off.
var endToEnd = []decl{
	{"req_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is reported by the traced run. Times are per replayed request;
// a share names its base in README.md.
var perLayer = []decl{
	{"router.self_share", "ratio"},
	{"router.remote_hit_ratio", "ratio"},
	{"httpapi.self_ms", "ms"},
	{"httpapi.decode_ms", "ms"},
	{"httpapi.encode_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"engine.fingerprint_us", "us"},
	{"solvecache.hit_ratio.exact", "ratio"},
	{"solvecache.hit_ratio.joint", "ratio"},
	{"solvecache.hit_ratio.analytic", "ratio"},
	{"solvecache.hit_ratio.robust", "ratio"},
	{"solvecache.hit_ratio.placement", "ratio"},
	{"solvecache.warm_start_ratio", "ratio"},
	{"solvecache.cold_solves_per_req", "count"},
	{"solvecache.entries", "count"},
	{"solver.run_ms", "ms"},
	{"solver.screen_share", "ratio"},
	{"core.prologue_share", "ratio"},
	{"core.lp_share", "ratio"},
	{"placement.dp_share", "ratio"},
	{"placement.partials_per_req", "count"},
	{"placement.pruned_ratio", "ratio"},
	{"sim.share", "ratio"},
	{"sim.runs_per_req", "count"},
	{"sim.packets_per_s", "1/s"},
	{"trace.coverage", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricsOf attaches units to values and insists that values holds exactly
// the declared metrics, so a run can never print a partial or stray set.
func metricsOf(decls []decl, values map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// printResult writes one line per metric for people, then the result as
// one JSON line, which must be the last line of standard output.
func printResult(w io.Writer, workloadName string, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if _, err := fmt.Fprintf(w, "%-12s %-32s %14.6g %s\n", workloadName, n, m.Value, m.Unit); err != nil {
			return err
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
