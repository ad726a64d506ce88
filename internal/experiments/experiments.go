// Package experiments regenerates every table and figure of the paper's
// evaluation (§3) plus the §2 solvability demonstration, on the synthetic
// network-processor testbed (DESIGN.md §2 records the substitution). Both
// cmd/experiments and the repository-level benchmarks drive this package, so
// the printed rows and the benchmarked work are the same code.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/graph"
	"socbuf/internal/nonlinear"
	"socbuf/internal/parallel"
	"socbuf/internal/policy"
	"socbuf/internal/sim"
	"socbuf/internal/solvecache"
	"socbuf/internal/solver"
	"socbuf/internal/uncertain"
)

// Options tunes experiment cost. Zero values pick the defaults used by the
// published EXPERIMENTS.md numbers.
type Options struct {
	Iterations int     // methodology iterations (default 10, the paper's count)
	Seeds      []int64 // evaluation seeds (default 1..5)
	Horizon    float64 // sim horizon (default 2000)
	WarmUp     float64 // sim warm-up (default 100)
	// Workers bounds the goroutines each experiment fans its points
	// (budgets, seeds) across. 0 means GOMAXPROCS; 1 forces serial runs.
	// Results are identical for every worker count — the sweep runner
	// aggregates in point order.
	Workers int
	// Cache, when non-nil, is shared by every methodology run the experiment
	// fans out, deduplicating identical per-bus sub-model solves fleet-wide
	// (see internal/solvecache); nil gives each run a private cache, with
	// the same results. Use PlanBudgetSweep/PrewarmCtx to pre-populate it,
	// and Cache.Stats for the hit/miss/warm-start counters.
	Cache *solvecache.Cache
	// OnBudgetRow, when non-nil, is invoked from a worker goroutine as each
	// budget-sweep point completes — in completion order, not input order, so
	// the callback must be safe for concurrent use. The final
	// BudgetSweepResult is unaffected (aggregation still walks input order);
	// the hook exists so long sweeps can stream per-point rows as they land
	// (socbufd's NDJSON endpoints are the consumer).
	OnBudgetRow func(BudgetRow)
	// OnScenarioRow is OnBudgetRow for scenario sweeps.
	OnScenarioRow func(ScenarioRow)
	// Method selects the solver backend every methodology run uses ("exact"
	// | "analytic" | "hybrid"; empty = exact — see internal/solver). Budget
	// sweeps can override it per point with PointMethods; scenarios' own
	// Method fields win over this default.
	Method string
	// PointMethods optionally overrides Method per budget-sweep point,
	// aligned index-for-index with the budgets slice (empty entries inherit
	// Method). Length must be zero or the number of budgets. This is the
	// device that lets one sweep screen most points analytically and refine
	// only the Pareto knee exactly.
	PointMethods []string
	// Uncertainty is the traffic-uncertainty spec handed to every
	// methodology run (the robust backend consumes it; others carry it
	// untouched). A scenario's own Uncertainty field wins over this
	// default, mirroring Method.
	Uncertainty *uncertain.Spec
	// Observer, when non-nil, is invoked after every methodology run a
	// sweep executes, with the resolved backend name and the run's wall
	// time (failed runs included — they consumed the time). Called from
	// worker goroutines; must be safe for concurrent use. internal/engine
	// hangs its per-backend stats counters off this hook.
	Observer func(method string, wall time.Duration)
}

// runMethod executes one methodology run through the solver registry,
// timing it for opt.Observer — the single funnel every sweep point and
// figure/table regeneration goes through.
func runMethod(ctx context.Context, cfg core.Config, opt Options) (*core.Result, error) {
	start := time.Now()
	res, err := solver.Run(ctx, cfg)
	if opt.Observer != nil {
		opt.Observer(solver.Canonical(cfg.Method), time.Since(start))
	}
	return res, err
}

// validatePointMethods checks the PointMethods alignment contract.
func (o Options) validatePointMethods(points int) error {
	if len(o.PointMethods) != 0 && len(o.PointMethods) != points {
		return fmt.Errorf("experiments: %d per-point methods for %d budgets", len(o.PointMethods), points)
	}
	return nil
}

// pointMethod resolves point i's backend name.
func (o Options) pointMethod(i int) string {
	if i < len(o.PointMethods) && o.PointMethods[i] != "" {
		return o.PointMethods[i]
	}
	return o.Method
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if o.Horizon == 0 {
		o.Horizon = 2000
	}
	if o.WarmUp == 0 {
		o.WarmUp = 100
	}
	return o
}

// Figure3Result holds the three per-processor loss series of Figure 3.
type Figure3Result struct {
	Procs []string // p1..p17 in numeric order
	// Pre is the loss under constant (uniform) sizing — the first bar.
	Pre map[string]int64
	// Post is the loss after CTMDP sizing — the second bar.
	Post map[string]int64
	// Timeout is the loss under the timeout policy — the third bar.
	Timeout map[string]int64
	// Totals.
	PreTotal, PostTotal, TimeoutTotal int64
	// TimeoutThreshold is the derived mean-residence threshold.
	TimeoutThreshold float64
	// Worsened lists processors whose loss increased after sizing (the
	// paper: "they increase slightly for some processors").
	Worsened []string
}

// Figure3 regenerates the paper's Figure 3 at the given budget (the paper
// uses the scarce-budget regime; 160 matches Table 1's first column).
func Figure3(budget int, opt Options) (*Figure3Result, error) {
	opt = opt.withDefaults()
	a := arch.NetworkProcessor()

	res, err := runMethod(context.Background(), core.Config{
		Arch:       a,
		Budget:     budget,
		Iterations: opt.Iterations,
		Seeds:      opt.Seeds,
		Horizon:    opt.Horizon,
		WarmUp:     opt.WarmUp,
		Workers:    opt.Workers,
		Cache:      opt.Cache,
		Method:     opt.Method,
	}, opt)
	if err != nil {
		return nil, err
	}

	// Timeout policy: uniform allocation; threshold = average residence
	// time measured on a calibration run of the same system.
	buffered := res.Arch
	calib, err := sim.New(sim.Config{
		Arch: buffered, Alloc: res.BaselineAlloc,
		Horizon: opt.Horizon, WarmUp: opt.WarmUp, Seed: opt.Seeds[0],
	})
	if err != nil {
		return nil, err
	}
	calibRes, err := calib.Run()
	if err != nil {
		return nil, err
	}
	threshold, err := policy.TimeoutThreshold(calibRes)
	if err != nil {
		return nil, err
	}
	// The per-seed timeout evaluations are independent sweep points; fan
	// them out and merge in seed order.
	perSeed, err := parallel.Map(len(opt.Seeds), opt.Workers, func(i int) (*sim.Results, error) {
		s, err := sim.New(sim.Config{
			Arch: buffered, Alloc: res.BaselineAlloc,
			Horizon: opt.Horizon, WarmUp: opt.WarmUp, Seed: opt.Seeds[i],
			Timeout: threshold,
		})
		if err != nil {
			return nil, err
		}
		return s.Run()
	})
	if err != nil {
		return nil, err
	}
	timeout := map[string]int64{}
	var timeoutTotal int64
	for _, r := range perSeed {
		for p, v := range r.Lost {
			timeout[p] += v
		}
		timeoutTotal += r.TotalLost()
	}

	out := &Figure3Result{
		Pre:              res.BaselineLossByProc,
		Post:             res.Best.LossByProc,
		Timeout:          timeout,
		PreTotal:         res.BaselineLoss,
		PostTotal:        res.Best.SimLoss,
		TimeoutTotal:     timeoutTotal,
		TimeoutThreshold: threshold,
	}
	for _, p := range a.Processors {
		out.Procs = append(out.Procs, p.ID)
	}
	sort.Slice(out.Procs, func(i, j int) bool {
		return procNum(out.Procs[i]) < procNum(out.Procs[j])
	})
	for _, p := range out.Procs {
		if out.Post[p] > out.Pre[p] {
			out.Worsened = append(out.Worsened, p)
		}
	}
	return out, nil
}

func procNum(id string) int {
	var n int
	fmt.Sscanf(id, "p%d", &n)
	return n
}

// Table1Result holds the budget sweep of Table 1.
type Table1Result struct {
	Budgets []int
	Procs   []string
	// Pre[budget][proc] and Post[budget][proc] are the loss counts before
	// and after sizing.
	Pre  map[int]map[string]int64
	Post map[int]map[string]int64
	// Totals per budget.
	PreTotal  map[int]int64
	PostTotal map[int]int64
}

// Table1 regenerates the paper's Table 1: loss at selected processors under
// varying total buffer size. The paper tracks processors 1, 4, 15, 16.
func Table1(budgets []int, procs []string, opt Options) (*Table1Result, error) {
	opt = opt.withDefaults()
	if len(budgets) == 0 {
		budgets = []int{160, 320, 640}
	}
	if len(procs) == 0 {
		procs = []string{"p1", "p4", "p15", "p16"}
	}
	out := &Table1Result{
		Budgets:   budgets,
		Procs:     procs,
		Pre:       map[int]map[string]int64{},
		Post:      map[int]map[string]int64{},
		PreTotal:  map[int]int64{},
		PostTotal: map[int]int64{},
	}
	// Budgets are independent sweep points: fan them across the worker pool
	// and aggregate in budget order. Any point's failure is reported with
	// its budget; the whole table fails, matching the serial behaviour.
	// Each point runs its seeds serially (Workers: 1) — the outer fan-out
	// already saturates the pool, and nesting would multiply concurrency to
	// Workers² goroutines.
	points, err := parallel.Map(len(budgets), opt.Workers, func(i int) (*core.Result, error) {
		res, err := runMethod(context.Background(), core.Config{
			Arch:       arch.NetworkProcessor(),
			Budget:     budgets[i],
			Iterations: opt.Iterations,
			Seeds:      opt.Seeds,
			Horizon:    opt.Horizon,
			WarmUp:     opt.WarmUp,
			Workers:    1,
			Cache:      opt.Cache,
			Method:     opt.Method,
		}, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: budget %d: %w", budgets[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, res := range points {
		b := budgets[i]
		out.Pre[b] = res.BaselineLossByProc
		out.Post[b] = res.Best.LossByProc
		out.PreTotal[b] = res.BaselineLoss
		out.PostTotal[b] = res.Best.SimLoss
	}
	return out, nil
}

// SplitDemoResult holds the §2 solvability demonstration on Figure 1.
type SplitDemoResult struct {
	// KKTValid reports whether Newton on the coupled quadratic system's KKT
	// conditions produced a valid solution (the paper: it does not).
	KKTValid  bool
	KKTReason string
	// CoupledUnknowns is the size of the quadratic system.
	CoupledUnknowns int
	// SplitSubsystems counts the linear subsystems after buffer insertion
	// (the paper's Figure 2 shows 4).
	SplitSubsystems int
	// SplitLossRate is the joint-LP optimum of the split system.
	SplitLossRate float64
	// SplitIters counts simplex pivots — a single finite LP solve, versus
	// the nonlinear iteration that failed.
	SplitIters int
}

// SplitDemo reproduces §2 on the Figure 1 architecture: the coupled
// quadratic system defeats a Newton/KKT solver, while after buffer insertion
// the split system solves as one linear program.
func SplitDemo() (*SplitDemoResult, error) {
	a := arch.Figure1()
	groups, err := graph.CoupledGroups(a)
	if err != nil {
		return nil, err
	}
	if len(groups) != 1 {
		return nil, fmt.Errorf("experiments: expected 1 coupled group, got %d", len(groups))
	}
	cs, err := nonlinear.FromArchitecture(a, groups[0].Buses, 2)
	if err != nil {
		return nil, err
	}
	kkt, err := cs.KKTNewton(nonlinear.NewtonOptions{MaxIters: 150})
	if err != nil {
		return nil, err
	}

	out := &SplitDemoResult{
		KKTValid:        kkt.Valid,
		KKTReason:       kkt.Diag.Reason,
		CoupledUnknowns: cs.NumUnknowns(),
	}

	// Buffer insertion and split.
	b := arch.Figure1()
	b.InsertBridgeBuffers()
	subs, err := graph.Split(b)
	if err != nil {
		return nil, err
	}
	out.SplitSubsystems = len(subs)

	alloc, err := arch.UniformAllocation(b, 40)
	if err != nil {
		return nil, err
	}
	models, err := core.BuildSubsystemModels(b, alloc, core.Config{Arch: b, Budget: 40})
	if err != nil {
		return nil, err
	}
	sol, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{})
	if err != nil {
		return nil, err
	}
	out.SplitLossRate = sol.TotalLossRate
	out.SplitIters = sol.Iters
	return out, nil
}

// HeadlineResult carries the §3 summary ratios.
type HeadlineResult struct {
	// CTMDPOverConstant = post/pre total loss (paper: ≈ 0.8, a 20% drop).
	CTMDPOverConstant float64
	// CTMDPOverTimeout = post/timeout total loss (paper: ≈ 0.5).
	CTMDPOverTimeout float64
	Fig3             *Figure3Result
}

// Headline computes the paper's two headline ratios at the scarce budget.
func Headline(budget int, opt Options) (*HeadlineResult, error) {
	fig, err := Figure3(budget, opt)
	if err != nil {
		return nil, err
	}
	out := &HeadlineResult{Fig3: fig}
	if fig.PreTotal > 0 {
		out.CTMDPOverConstant = float64(fig.PostTotal) / float64(fig.PreTotal)
	}
	if fig.TimeoutTotal > 0 {
		out.CTMDPOverTimeout = float64(fig.PostTotal) / float64(fig.TimeoutTotal)
	}
	return out, nil
}
