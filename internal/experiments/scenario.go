package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"socbuf/internal/core"
	"socbuf/internal/parallel"
	"socbuf/internal/report"
	"socbuf/internal/scenario"
	"socbuf/internal/sim"
	"socbuf/internal/uncertain"
)

// ScenarioPoint is one scenario's outcome row. The JSON tags are the
// machine-readable contract shared by WriteJSON, the CLIs' -json flag and
// the socbufd scenario-sweep stream.
type ScenarioPoint struct {
	Name    string `json:"name"`
	Arch    string `json:"arch"` // architecture name
	Buses   int    `json:"buses"`
	Buffers int    `json:"buffers"` // buffer count after insertion (what Budget divides over)
	Traffic string `json:"traffic"`
	Budget  int    `json:"budget"`
	// Method is the solver backend the point ran with (empty = exact, so
	// pre-backend consumers' JSON is unchanged).
	Method string `json:"method,omitempty"`
	// Pre and Post are total simulated losses before/after CTMDP sizing,
	// summed over the evaluation seeds.
	Pre  int64 `json:"uniformLoss"`
	Post int64 `json:"sizedLoss"`
	// Improvement is 1 − post/pre (0 when pre is 0).
	Improvement float64 `json:"improvement"`
	// LossFrac and Latency come from a probe simulation of the best
	// allocation on the first seed: the fraction of generated packets lost,
	// and the Little's-law mean packet sojourn (Σ mean buffer occupancy /
	// delivery throughput).
	LossFrac float64 `json:"lossFrac"`
	Latency  float64 `json:"latency"`
	// Robust carries a robust-backend point's chance-constraint report
	// (empirical yield, Wilson bound, budget used); omitted otherwise.
	Robust *uncertain.Report `json:"robust,omitempty"`
}

// ScenarioRow is one scenario point in machine-readable form — a
// ScenarioPoint plus the error string of a failed point (zero-valued
// losses). It is the unit of both ScenarioSweepResult.WriteJSON and the
// socbufd NDJSON stream.
type ScenarioRow struct {
	ScenarioPoint
	Error string `json:"error,omitempty"`
}

// ScenarioError records one failed sweep point.
type ScenarioError struct {
	Name string
	Err  error
}

// ScenarioSweepResult holds a parallel sweep over scenarios. Points appear
// in input order; the aggregation is byte-identical for any worker count.
type ScenarioSweepResult struct {
	Points []ScenarioPoint
	Failed []ScenarioError
}

// Err joins the per-scenario failures (nil when every point succeeded).
func (r *ScenarioSweepResult) Err() error {
	errs := make([]error, len(r.Failed))
	for i, f := range r.Failed {
		errs[i] = fmt.Errorf("scenario %s: %w", f.Name, f.Err)
	}
	return errors.Join(errs...)
}

// WriteTable renders the sweep — one row per successful scenario, one
// trailing line per failure — in the shared report format. A method column
// appears only when some point ran a non-exact backend.
func (r *ScenarioSweepResult) WriteTable(w io.Writer) error {
	withMethod, withYield := false, false
	for _, p := range r.Points {
		if p.Method != "" {
			withMethod = true
		}
		if p.Robust != nil {
			withYield = true
		}
	}
	headers := []string{"SCENARIO", "arch", "buses", "buffers", "traffic", "budget",
		"uniform loss", "sized loss", "improvement", "loss frac", "latency"}
	if withMethod {
		headers = append(headers, "method")
	}
	if withYield {
		headers = append(headers, "yield", "yield low", "met")
	}
	var rows [][]string
	for _, p := range r.Points {
		row := []string{
			p.Name, p.Arch, fmt.Sprint(p.Buses), fmt.Sprint(p.Buffers), p.Traffic,
			fmt.Sprint(p.Budget), fmt.Sprint(p.Pre), fmt.Sprint(p.Post),
			fmt.Sprintf("%.1f%%", p.Improvement*100),
			fmt.Sprintf("%.4f", p.LossFrac),
			fmt.Sprintf("%.3f", p.Latency),
		}
		if withMethod {
			m := p.Method
			if m == "" {
				m = "exact"
			}
			row = append(row, m)
		}
		if withYield {
			row = append(row, yieldCells(p.Robust)...)
		}
		rows = append(rows, row)
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	for _, f := range r.Failed {
		if _, err := fmt.Fprintf(w, "  FAILED scenario %s: %v\n", f.Name, f.Err); err != nil {
			return err
		}
	}
	return nil
}

// Rows flattens the sweep into machine-readable rows: successful points in
// input order, then failed points in input order.
func (r *ScenarioSweepResult) Rows() []ScenarioRow {
	rows := make([]ScenarioRow, 0, len(r.Points)+len(r.Failed))
	for _, p := range r.Points {
		rows = append(rows, ScenarioRow{ScenarioPoint: p})
	}
	for _, f := range r.Failed {
		rows = append(rows, ScenarioRow{ScenarioPoint: ScenarioPoint{Name: f.Name}, Error: f.Err.Error()})
	}
	return rows
}

// WriteJSON renders the sweep as one indented JSON document
// ({"points": [ScenarioRow...]}) — the machine-readable sibling of
// WriteTable.
func (r *ScenarioSweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Points []ScenarioRow `json:"points"`
	}{r.Rows()})
}

// WriteScenarioList renders the scenario registry as a table — the shared
// body of both CLIs' -list-scenarios flag.
func WriteScenarioList(w io.Writer) error {
	headers := []string{"NAME", "topology", "traffic", "budget", "description"}
	var rows [][]string
	for _, s := range scenario.All() {
		rows = append(rows, []string{
			s.Name, s.Topology.String(), s.Traffic.String(), fmt.Sprint(s.Budget), s.Description,
		})
	}
	return report.Table(w, headers, rows)
}

// ParseSeeds parses a comma-separated seed list like "1,2,3", ignoring
// empty segments. The scenario CLIs share this parser.
func ParseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad seed %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no seeds in %q", s)
	}
	return out, nil
}

// ParseNames splits a comma-separated scenario-name list, ignoring empty
// segments; an empty list means "the whole registry" to ScenarioSweepCtx's
// callers.
func ParseNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ScenarioSweepCtx runs the full methodology on every scenario, fanning the
// points across opt.Workers goroutines. A scenario's own solver knobs win;
// its zero fields inherit opt (so -quick trims every scenario uniformly).
// Failed scenarios are collected per point rather than aborting the sweep;
// the returned error is r.Err(). Cancellation is threaded into both the
// point fan-out and each scenario's methodology run (see BudgetSweepCtx for
// the semantics).
func ScenarioSweepCtx(ctx context.Context, scs []scenario.Scenario, opt Options) (*ScenarioSweepResult, error) {
	opt = opt.withDefaults()
	if len(scs) == 0 {
		return nil, errors.New("experiments: empty scenario sweep")
	}
	points, err := parallel.MapCtx(ctx, len(scs), opt.Workers, func(i int) (ScenarioPoint, error) {
		p, err := runScenario(ctx, scs[i], opt)
		if opt.OnScenarioRow != nil {
			row := ScenarioRow{ScenarioPoint: p}
			if err != nil {
				row = ScenarioRow{ScenarioPoint: ScenarioPoint{Name: scs[i].Name}, Error: err.Error()}
			}
			opt.OnScenarioRow(row)
		}
		return p, err
	})

	out := &ScenarioSweepResult{}
	failedAt := map[int]error{}
	for _, pe := range parallel.Points(err) {
		failedAt[pe.Index] = pe.Err
	}
	for i, p := range points {
		if fe, ok := failedAt[i]; ok {
			out.Failed = append(out.Failed, ScenarioError{Name: scs[i].Name, Err: fe})
			continue
		}
		out.Points = append(out.Points, p)
	}
	return out, out.Err()
}

// runScenario executes one point: methodology run plus a probe simulation of
// the winning allocation for the loss-fraction and latency estimates.
// Points run their seeds serially (Workers: 1) — the outer fan-out already
// saturates the pool.
func runScenario(ctx context.Context, sc scenario.Scenario, opt Options) (ScenarioPoint, error) {
	cfg, err := sc.CoreConfig()
	if err != nil {
		return ScenarioPoint{}, err
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = opt.Iterations
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = opt.Seeds
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = opt.Horizon
	}
	if cfg.WarmUp == 0 {
		cfg.WarmUp = opt.WarmUp
	}
	if cfg.Method == "" {
		cfg.Method = opt.Method
	}
	if cfg.Uncertainty == nil {
		cfg.Uncertainty = opt.Uncertainty
	}
	cfg.Workers = 1
	cfg.Cache = opt.Cache

	res, err := runMethod(ctx, cfg, opt)
	if err != nil {
		return ScenarioPoint{}, err
	}

	// The probe measures the same system the sized-loss column did: the best
	// allocation under its own CTMDP arbitration and the scenario's traffic.
	// Analytic sizings carry no CTMDP solution — their probe keeps the
	// longest-queue default, matching how their sized loss was evaluated.
	probeCfg := sim.Config{
		Arch:    res.Arch,
		Alloc:   res.Best.Alloc,
		Horizon: cfg.Horizon,
		WarmUp:  cfg.WarmUp,
		Seed:    cfg.Seeds[0],
	}
	if res.Best.Solution != nil {
		probeCfg.Arbiters, err = core.Arbiters(res.Arch, res.Best.Solution, res.Best.Alloc)
		if err != nil {
			return ScenarioPoint{}, err
		}
	}
	if cfg.Traffic != nil {
		probeCfg.Sources, err = cfg.Traffic(res.Arch)
		if err != nil {
			return ScenarioPoint{}, err
		}
	}
	probe, err := sim.New(probeCfg)
	if err != nil {
		return ScenarioPoint{}, err
	}
	pr, err := probe.Run()
	if err != nil {
		return ScenarioPoint{}, err
	}

	p := ScenarioPoint{
		Name:        sc.Name,
		Arch:        res.Arch.Name,
		Buses:       len(res.Arch.Buses),
		Buffers:     len(res.Arch.BufferIDs()),
		Traffic:     sc.Traffic.String(),
		Budget:      sc.Budget,
		Method:      rowMethod(cfg.Method),
		Pre:         res.BaselineLoss,
		Post:        res.Best.SimLoss,
		Improvement: res.Improvement(),
		LossFrac:    pr.LossFraction(),
		Robust:      res.Robust,
	}
	if window := cfg.Horizon - cfg.WarmUp; window > 0 && pr.TotalDelivered() > 0 {
		// Sum in sorted buffer order: float addition order must not depend on
		// map iteration, or identical sweeps drift in the last ULP.
		var occ float64
		for _, id := range report.SortedKeys(pr.MeanOccupancy) {
			occ += pr.MeanOccupancy[id]
		}
		throughput := float64(pr.TotalDelivered()) / window
		p.Latency = occ / throughput
	}
	return p, nil
}
