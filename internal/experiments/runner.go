package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/parallel"
	"socbuf/internal/report"
	"socbuf/internal/uncertain"
)

// BudgetSweepResult holds a parallel budget sweep of the full methodology on
// one architecture. Aggregation is order-stable: every map is keyed by
// budget and filled by walking the points in input order, so the result is
// byte-identical for any worker count.
type BudgetSweepResult struct {
	// Budgets lists the points that succeeded, in input order.
	Budgets []int
	// Pre and Post are total simulated losses before/after CTMDP sizing.
	Pre, Post map[int]int64
	// Improvement is 1 − post/pre per budget (0 when pre is 0).
	Improvement map[int]float64
	// Method records each point's solver backend, keyed by budget; points
	// on the exact default are omitted.
	Method map[int]string
	// Robust records the chance-constraint report of each robust-backend
	// point, keyed by budget; other points are absent. When non-empty the
	// rendered table grows yield columns.
	Robust map[int]*uncertain.Report
	// Failed pairs each failing budget with its error, in input order; the
	// successful points above are still populated.
	Failed []BudgetError
}

// BudgetError records one failed sweep point.
type BudgetError struct {
	Budget int
	Err    error
}

// BudgetRow is one budget point in machine-readable form — the unit of both
// BudgetSweepResult.WriteJSON and the socbufd NDJSON stream (one row per
// line as points complete). A failed point carries its error string and
// zero-valued losses. Method is the solver backend the point ran with
// (omitted for the exact default, keeping pre-backend consumers' JSON
// unchanged).
type BudgetRow struct {
	Budget      int     `json:"budget"`
	Method      string  `json:"method,omitempty"`
	UniformLoss int64   `json:"uniformLoss"`
	SizedLoss   int64   `json:"sizedLoss"`
	Improvement float64 `json:"improvement"`
	// Robust carries a robust-backend point's chance-constraint report
	// (empirical yield, Wilson bound, budget used); omitted otherwise.
	Robust *uncertain.Report `json:"robust,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// Rows flattens the sweep into machine-readable rows: successful points in
// input order, then failed points in input order.
func (r *BudgetSweepResult) Rows() []BudgetRow {
	rows := make([]BudgetRow, 0, len(r.Budgets)+len(r.Failed))
	for _, b := range r.Budgets {
		rows = append(rows, BudgetRow{
			Budget:      b,
			Method:      r.Method[b],
			UniformLoss: r.Pre[b],
			SizedLoss:   r.Post[b],
			Improvement: r.Improvement[b],
			Robust:      r.Robust[b],
		})
	}
	for _, f := range r.Failed {
		rows = append(rows, BudgetRow{Budget: f.Budget, Error: f.Err.Error()})
	}
	return rows
}

// WriteJSON renders the sweep as one indented JSON document
// ({"points": [BudgetRow...]}) — the machine-readable sibling of WriteTable,
// shared verbatim by the CLIs' -json flag and the socbufd summary line.
func (r *BudgetSweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Points []BudgetRow `json:"points"`
	}{r.Rows()})
}

// Err joins the per-point failures (nil when every point succeeded).
func (r *BudgetSweepResult) Err() error {
	errs := make([]error, len(r.Failed))
	for i, f := range r.Failed {
		errs[i] = fmt.Errorf("budget %d: %w", f.Budget, f.Err)
	}
	return errors.Join(errs...)
}

// ParseBudgets parses a comma-separated budget list like "160,320,640",
// ignoring empty segments. Both sweep CLIs share this parser.
func ParseBudgets(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		b, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad budget %q: %v", part, err)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no budgets in %q", s)
	}
	return out, nil
}

// ParseMethods parses a comma-separated per-point method list like
// "analytic,analytic,exact". Unlike ParseBudgets, empty segments are kept
// (as "") so a list can override only some points — "analytic,,hybrid"
// leaves the middle point on the sweep's default method. Name validation
// happens at dispatch, where the unknown-method message is uniform.
func ParseMethods(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out
}

// WriteTable renders the sweep — one row per successful budget, one trailing
// line per failed point — in the shared report format. A method column
// appears only when some point ran a non-exact backend.
func (r *BudgetSweepResult) WriteTable(w io.Writer) error {
	headers := []string{"BUDGET", "uniform loss", "sized loss", "improvement"}
	if len(r.Method) > 0 {
		headers = append(headers, "method")
	}
	if len(r.Robust) > 0 {
		headers = append(headers, "yield", "yield low", "met")
	}
	var rows [][]string
	for _, b := range r.Budgets {
		row := []string{
			fmt.Sprint(b),
			fmt.Sprint(r.Pre[b]),
			fmt.Sprint(r.Post[b]),
			fmt.Sprintf("%.1f%%", r.Improvement[b]*100),
		}
		if len(r.Method) > 0 {
			m := r.Method[b]
			if m == "" {
				m = "exact"
			}
			row = append(row, m)
		}
		if len(r.Robust) > 0 {
			row = append(row, yieldCells(r.Robust[b])...)
		}
		rows = append(rows, row)
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	for _, f := range r.Failed {
		if _, err := fmt.Fprintf(w, "  FAILED budget %d: %v\n", f.Budget, f.Err); err != nil {
			return err
		}
	}
	return nil
}

// BudgetSweepCtx runs the size→solve→resimulate methodology at every
// budget, fanning the points across opt.Workers goroutines (GOMAXPROCS by
// default). newArch must return a fresh architecture per call — points must
// not share mutable state. Failed points are collected per budget rather
// than aborting the sweep; the returned error is r.Err(). On cancellation,
// points not yet started fail with ctx.Err() (reported like any other point
// failure) and in-flight points return as soon as core.RunCtx notices; the
// partial result is still returned.
func BudgetSweepCtx(ctx context.Context, newArch func() *arch.Architecture, budgets []int, opt Options) (*BudgetSweepResult, error) {
	opt = opt.withDefaults()
	if len(budgets) == 0 {
		return nil, errors.New("experiments: empty budget sweep")
	}
	if err := opt.validatePointMethods(len(budgets)); err != nil {
		return nil, err
	}
	if newArch == nil {
		newArch = arch.NetworkProcessor
	}
	// Points run their seeds serially (Workers: 1): the outer fan-out
	// already saturates the pool, and nesting would multiply concurrency to
	// Workers² goroutines. Every point routes through the solver registry,
	// so a sweep can mix backends point by point (Options.PointMethods).
	points, err := parallel.MapCtx(ctx, len(budgets), opt.Workers, func(i int) (*core.Result, error) {
		res, err := runMethod(ctx, core.Config{
			Arch:        newArch(),
			Budget:      budgets[i],
			Iterations:  opt.Iterations,
			Seeds:       opt.Seeds,
			Horizon:     opt.Horizon,
			WarmUp:      opt.WarmUp,
			Workers:     1,
			Cache:       opt.Cache,
			Method:      opt.pointMethod(i),
			Uncertainty: opt.Uncertainty,
		}, opt)
		if opt.OnBudgetRow != nil {
			opt.OnBudgetRow(budgetRow(budgets[i], rowMethod(opt.pointMethod(i)), res, err))
		}
		return res, err
	})

	out := &BudgetSweepResult{
		Pre:         map[int]int64{},
		Post:        map[int]int64{},
		Improvement: map[int]float64{},
		Method:      map[int]string{},
		Robust:      map[int]*uncertain.Report{},
	}
	// Pull per-point failures out of the joined error by index so partial
	// sweeps stay usable.
	failedAt := map[int]error{}
	for _, pe := range parallel.Points(err) {
		failedAt[pe.Index] = pe.Err
	}
	for i, res := range points {
		b := budgets[i]
		if fe, ok := failedAt[i]; ok {
			out.Failed = append(out.Failed, BudgetError{Budget: b, Err: fe})
			continue
		}
		out.Budgets = append(out.Budgets, b)
		out.Pre[b] = res.BaselineLoss
		out.Post[b] = res.Best.SimLoss
		out.Improvement[b] = res.Improvement()
		if m := rowMethod(opt.pointMethod(i)); m != "" {
			out.Method[b] = m
		}
		if res.Robust != nil {
			out.Robust[b] = res.Robust
		}
	}
	return out, out.Err()
}

// rowMethod is the reporting form of a point's method: the exact default
// stays empty so pre-backend report rows are unchanged.
func rowMethod(m string) string {
	if m == "" || m == "exact" {
		return ""
	}
	return m
}

// budgetRow shapes one completed point (or its failure) for the streaming
// hook.
func budgetRow(budget int, method string, res *core.Result, err error) BudgetRow {
	if err != nil {
		return BudgetRow{Budget: budget, Method: method, Error: err.Error()}
	}
	return BudgetRow{
		Budget:      budget,
		Method:      method,
		UniformLoss: res.BaselineLoss,
		SizedLoss:   res.Best.SimLoss,
		Improvement: res.Improvement(),
		Robust:      res.Robust,
	}
}

// yieldCells renders one point's chance-constraint columns ("-" for points
// that ran a non-robust backend in a mixed sweep).
func yieldCells(rep *uncertain.Report) []string {
	if rep == nil {
		return []string{"-", "-", "-"}
	}
	return []string{
		fmt.Sprintf("%.3f", rep.Yield),
		fmt.Sprintf("%.3f", rep.YieldLow),
		fmt.Sprint(rep.Met),
	}
}
