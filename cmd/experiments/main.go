// Command experiments regenerates every table and figure of the paper's
// evaluation, and sweeps the scenario registry:
//
//	experiments -fig3            Figure 3 (per-processor loss, three policies)
//	experiments -table1          Table 1 (budget sweep 160/320/640)
//	experiments -split           §2 demo (coupled quadratic vs split linear)
//	experiments -headline        §3 headline ratios
//	experiments -sweep           parallel budget sweep (see -budgets)
//	experiments -all             everything (the EXPERIMENTS.md run)
//	experiments -list-scenarios  print the scenario registry
//
//	experiments scenario-sweep [-scenarios a,b] [-budget N] [-iters N]
//	                           [-seeds 1,2] [-horizon T] [-parallel N] [-quick]
//	experiments robust-sweep   [-scenarios a,b] [-samples N] [-confidence p]
//	                           [-rate-sigma s] [-quick]
//	experiments placement-sweep [-scenarios a,b] [-method m] [-buffer-types t]
//	                            [-cost-budget C] [-refine-top K] [-quick]
//
// scenario-sweep runs the full methodology on every named registry scenario
// (all of them when -scenarios is empty) in parallel and prints one report
// row per scenario; -budget overrides every scenario's budget (the CI smoke
// run uses it to stay tiny).
//
// placement-sweep runs the buffer-placement DP (internal/placement; DESIGN.md
// §7) on every named registry scenario and prints one row per scenario:
// candidate and frontier sizes, DP pruning counters, and the chosen insertion
// points. EXPERIMENTS.md documents the columns.
//
// -quick reduces iterations/seeds/horizon for a fast smoke pass. -parallel N
// bounds the sweep engine's worker pool (default GOMAXPROCS); results are
// identical for every worker count.
//
// robust-sweep is scenario-sweep pinned to the robust backend: every
// scenario is sized by the Monte-Carlo chance-constrained method
// (internal/uncertain; DESIGN.md §9) and the report grows yield columns —
// the empirical fraction of traffic perturbations the chosen sizing
// survives, its Wilson lower bound, and whether the requested confidence
// was met. -samples/-confidence/-rate-sigma/-uncertainty-seed tune the
// spec (defaults 64 / 0.95 / 0.2 / 1); they are also accepted by
// scenario-sweep and the budget -sweep for points that run -method robust.
//
// -method selects the solver backend for every methodology run (exact |
// analytic | hybrid | robust; README "Choosing a solver method" has the
// speed/accuracy table); -sweep additionally accepts -methods, a
// comma-separated per-point list aligned with -budgets, so one sweep can
// screen most points analytically and refine only the interesting budgets
// exactly. Both flags also exist on scenario-sweep (-method only).
//
// -cache shares one solve cache (internal/solvecache) across everything the
// invocation runs, deduplicating identical per-bus sub-model solves
// fleet-wide; -sweep additionally plans the points up front and prewarms one
// solve per distinct sub-model fingerprint. -cache-stats implies -cache and
// prints the hit/miss counters at the end. Both flags also exist on
// scenario-sweep. Capped programs are never cached: each is solved afresh,
// bus by bus (DESIGN.md §8). See PERFORMANCE.md for measured effect.
//
// -json emits sweep results as JSON. All sweeps route through
// internal/engine — the same request/response API served over HTTP by
// cmd/socbufd; the figure/table regenerators call internal/experiments
// directly (they are report renderers, not sweep queries).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"socbuf/internal/cliutil"
	"socbuf/internal/engine"
	"socbuf/internal/experiments"
	"socbuf/internal/placement"
	"socbuf/internal/report"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scenario-sweep" {
		if err := scenarioSweepCmd(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "robust-sweep" {
		if err := scenarioSweepRun("robust-sweep", os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "placement-sweep" {
		if err := placementSweepCmd(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		fig3     = flag.Bool("fig3", false, "regenerate Figure 3")
		table1   = flag.Bool("table1", false, "regenerate Table 1")
		split    = flag.Bool("split", false, "run the §2 split-vs-nonlinear demo")
		headline = flag.Bool("headline", false, "compute the §3 headline ratios")
		sweep    = flag.Bool("sweep", false, "run a parallel budget sweep over -budgets")
		all      = flag.Bool("all", false, "run everything")
		quick    = flag.Bool("quick", false, "smaller iterations/seeds/horizon")
		budget   = flag.Int("budget", 160, "buffer budget for Figure 3 / headline")
		budgets  = flag.String("budgets", "160,320,640", "comma-separated budgets for -sweep")
		methods  = flag.String("methods", "", "per-point solver backends for -sweep, comma-aligned with -budgets (empty entries inherit -method)")
		list     = flag.Bool("list-scenarios", false, "print the scenario registry and exit")
	)
	method := cliutil.AddMethodFlag(nil)
	robust := cliutil.AddRobustFlags(nil)
	common := cliutil.AddCommonFlags(nil)
	flag.Parse()
	if err := common.Validate(); err != nil {
		fatal(err)
	}
	if *list {
		if err := experiments.WriteScenarioList(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	// -methods names per-sweep-point backends; without -sweep there are no
	// points and silently ignoring it would defeat the explicit selection.
	if *methods != "" && !*sweep {
		fatal(fmt.Errorf("%w: -methods only applies to -sweep (use -method for everything else)", engine.ErrInvalidRequest))
	}
	if !*fig3 && !*table1 && !*split && !*headline && !*sweep && !*all {
		*all = true
	}
	// One cache for everything the invocation runs: the engine adopts it for
	// the sweep queries, and the figure/table regenerators share it through
	// opt, so identical sub-model solves dedupe fleet-wide.
	var cache *solvecache.Cache
	if common.UseCache() {
		cache = solvecache.New()
	}
	eng := engine.New(engine.Config{Workers: common.Parallel, Cache: cache})
	defer eng.Close()

	opt := experiments.Options{}
	if *quick {
		opt = experiments.Options{Iterations: 3, Seeds: []int64{1, 2}, Horizon: 1200}
	}
	opt.Workers = common.Parallel
	opt.Cache = cache
	// -method applies to every methodology run the invocation performs:
	// the figure/table regenerators and the sweep queries alike.
	opt.Method = *method
	opt.Uncertainty = robust.Spec(cliutil.SetFlags(nil))
	// Under -json the counters go to stderr so stdout stays one parseable
	// document.
	defer func() {
		if common.CacheStats {
			if err := eng.WriteCacheStats(common.StatsWriter()); err != nil {
				fatal(err)
			}
		}
	}()

	if *all || *split {
		if err := runSplit(); err != nil {
			fatal(err)
		}
	}
	if *all || *fig3 {
		if err := runFig3(*budget, opt); err != nil {
			fatal(err)
		}
	}
	if *all || *table1 {
		if err := runTable1(opt); err != nil {
			fatal(err)
		}
	}
	if *all || *headline {
		if err := runHeadline(*budget, opt); err != nil {
			fatal(err)
		}
	}
	if *sweep {
		list, err := experiments.ParseBudgets(*budgets)
		if err != nil {
			fatal(err)
		}
		if err := runSweep(eng, list, opt, experiments.ParseMethods(*methods), common); err != nil {
			fatal(err)
		}
	}
}

// runSweep routes the budget sweep through the engine and renders the
// outcome (plan summary first when the cache planned it).
func runSweep(eng *engine.Engine, budgets []int, opt experiments.Options, methods []string, common *cliutil.CommonFlags) error {
	res, err := eng.BudgetSweep(context.Background(), engine.BudgetSweepRequest{
		Budgets:     budgets,
		Iterations:  opt.Iterations,
		Seeds:       opt.Seeds,
		Horizon:     opt.Horizon,
		Method:      opt.Method,
		Methods:     methods,
		Uncertainty: opt.Uncertainty,
		UseCache:    common.UseCache(),
	})
	if res == nil {
		return err
	}
	if common.JSON {
		if werr := res.Sweep.WriteJSON(os.Stdout); werr != nil {
			return werr
		}
		return err
	}
	if res.Plan != nil {
		fmt.Println("sweep plan:")
		if werr := res.Plan.WriteSummary(os.Stdout); werr != nil {
			return werr
		}
		fmt.Println()
	}
	fmt.Printf("Budget sweep — %d points\n", len(budgets))
	if werr := res.Sweep.WriteTable(os.Stdout); werr != nil {
		return werr
	}
	fmt.Println()
	return err
}

func fatal(err error) { cliutil.Fatal("experiments", err) }

// scenarioSweepCmd is the scenario-sweep subcommand: fan the methodology
// over registry scenarios through the engine and print a per-scenario
// report table.
func scenarioSweepCmd(args []string) error {
	return scenarioSweepRun("scenario-sweep", args)
}

// scenarioSweepRun backs both scenario-sweep and robust-sweep. robust-sweep
// is scenario-sweep pinned to the robust backend: every point runs the
// Monte-Carlo chance-constrained sizing and the report grows the yield
// columns (-method is therefore not accepted; the robust tuning flags are).
func scenarioSweepRun(name string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var (
		names   = fs.String("scenarios", "", "comma-separated scenario names (empty = whole registry)")
		budget  = fs.Int("budget", 0, "override every scenario's budget (0 = scenario's own)")
		iters   = fs.Int("iters", 0, "override methodology iterations (0 = scenario/default)")
		seeds   = fs.String("seeds", "", "comma-separated evaluation seeds (empty = scenario/default)")
		horizon = fs.Float64("horizon", 0, "override sim horizon (0 = scenario/default)")
		quick   = fs.Bool("quick", false, "smaller iterations/seeds/horizon")
	)
	var method *string
	if name == "robust-sweep" {
		pinned := "robust"
		method = &pinned
	} else {
		method = cliutil.AddMethodFlag(fs)
	}
	robust := cliutil.AddRobustFlags(fs)
	common := cliutil.AddCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.Validate(); err != nil {
		return err
	}
	var sd []int64
	if *seeds != "" {
		var err error
		if sd, err = experiments.ParseSeeds(*seeds); err != nil {
			return err
		}
	}

	eng := engine.New(engine.Config{Workers: common.Parallel})
	defer eng.Close()
	scNames := experiments.ParseNames(*names)
	res, err := eng.ScenarioSweep(context.Background(), engine.ScenarioSweepRequest{
		Scenarios:   scNames,
		Budget:      *budget,
		Iterations:  *iters,
		Seeds:       sd,
		Horizon:     *horizon,
		Method:      *method,
		Uncertainty: robust.Spec(cliutil.SetFlags(fs)),
		Quick:       *quick,
		UseCache:    common.UseCache(),
	})
	if res == nil {
		return err
	}
	if common.JSON {
		if werr := res.Sweep.WriteJSON(os.Stdout); werr != nil {
			return werr
		}
	} else {
		title := "Scenario sweep"
		if name == "robust-sweep" {
			title = "Robust sweep"
		}
		fmt.Printf("%s — %d scenarios\n", title, len(res.Sweep.Points)+len(res.Sweep.Failed))
		if werr := res.Sweep.WriteTable(os.Stdout); werr != nil {
			return werr
		}
		fmt.Println()
	}
	if common.CacheStats {
		if werr := eng.WriteCacheStats(common.StatsWriter()); werr != nil {
			return werr
		}
	}
	return err
}

// placementSweepCmd is the placement-sweep subcommand: run the buffer-
// placement DP on every named registry scenario (all of them when
// -scenarios is empty) and print one report row per scenario — frontier
// size, DP pruning counters and the chosen insertion points. Scenarios run
// sequentially; each placement's DP and evaluations spread over -parallel
// workers internally. Partial failures follow the sweep contract: every
// successful row prints, the error joins the per-scenario failures.
func placementSweepCmd(args []string) error {
	fs := flag.NewFlagSet("placement-sweep", flag.ExitOnError)
	var (
		names     = fs.String("scenarios", "", "comma-separated scenario names (empty = whole registry)")
		budget    = fs.Int("budget", 0, "override every scenario's budget (0 = scenario's own)")
		iters     = fs.Int("iters", 0, "override methodology iterations per evaluation (0 = scenario/default)")
		horizon   = fs.Float64("horizon", 0, "override sim horizon (0 = scenario/default)")
		quick     = fs.Bool("quick", false, "smaller iterations/seeds/horizon per evaluation")
		bufTypes  = fs.String("buffer-types", "", "insertion catalogue as name:cost:delay,... (empty = lite/std/fast defaults)")
		costBud   = fs.Float64("cost-budget", 0, "cap on summed insertion cost (0 = unbounded)")
		latWeight = fs.Float64("latency-weight", 0, "screened latency weight in the DP objective (0 = 0.1 default)")
		refineTop = fs.Int("refine-top", 0, "screened placements refined with -method per scenario (0 = 3 default)")
	)
	method := cliutil.AddMethodFlag(fs)
	common := cliutil.AddCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.Validate(); err != nil {
		return err
	}
	types, err := placement.ParseCatalogue(*bufTypes)
	if err != nil {
		return fmt.Errorf("%w: %v", engine.ErrInvalidRequest, err)
	}
	scs, err := scenario.Resolve(experiments.ParseNames(*names))
	if err != nil {
		return fmt.Errorf("%w: %v", engine.ErrInvalidRequest, err)
	}

	eng := engine.New(engine.Config{Workers: common.Parallel})
	defer eng.Close()
	ctx := context.Background()

	var results []*engine.PlacementResult
	var failures []error
	var rows [][]string
	for _, sc := range scs {
		req := engine.PlacementRequest{
			Scenario:      sc.Name,
			Budget:        *budget,
			Iterations:    *iters,
			Horizon:       *horizon,
			Method:        *method,
			Types:         types,
			CostBudget:    *costBud,
			LatencyWeight: *latWeight,
			RefineTop:     *refineTop,
			UseCache:      common.UseCache(),
		}
		if *quick {
			if req.Iterations == 0 {
				req.Iterations = 2
			}
			req.Seeds = []int64{1}
			if req.Horizon == 0 {
				req.Horizon = 400
			}
			req.WarmUp = 50
		}
		res, err := eng.Placement(ctx, req)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", sc.Name, err))
			rows = append(rows, []string{sc.Name, "FAILED", "-", "-", "-", "-", "-", "-", err.Error()})
			continue
		}
		results = append(results, res)
		rows = append(rows, []string{
			sc.Name,
			res.Method,
			fmt.Sprint(res.Candidates),
			fmt.Sprint(len(res.Frontier)),
			fmt.Sprint(res.Pruned),
			fmt.Sprintf("%g", res.Chosen.Cost),
			fmt.Sprint(res.Chosen.Bypassed),
			fmt.Sprint(res.Chosen.Loss),
			placement.DecisionString(res.Chosen.Decisions),
		})
	}

	if common.JSON {
		cliutil.PrintJSON("experiments", results)
	} else {
		fmt.Printf("Placement sweep — %d scenarios\n", len(scs))
		headers := []string{"SCENARIO", "method", "cand", "frontier", "pruned", "cost", "bypassed", "loss", "placement"}
		if err := report.Table(os.Stdout, headers, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if common.CacheStats {
		if err := eng.WriteCacheStats(common.StatsWriter()); err != nil {
			return err
		}
	}
	return errors.Join(failures...)
}

func runFig3(budget int, opt experiments.Options) error {
	fig, err := experiments.Figure3(budget, opt)
	if err != nil {
		return err
	}
	groups := make([]report.BarGroup, 0, len(fig.Procs))
	for _, p := range fig.Procs {
		groups = append(groups, report.BarGroup{
			Label:  p,
			Values: []float64{float64(fig.Pre[p]), float64(fig.Post[p]), float64(fig.Timeout[p])},
		})
	}
	title := fmt.Sprintf("Figure 3 — loss per processor, budget %d (timeout threshold %.3f)", budget, fig.TimeoutThreshold)
	if err := report.BarChart(os.Stdout, title, []string{"pre", "post", "timeout"}, groups, 50); err != nil {
		return err
	}
	fmt.Printf("totals: pre=%d post=%d timeout=%d; worsened after sizing: %v\n\n",
		fig.PreTotal, fig.PostTotal, fig.TimeoutTotal, fig.Worsened)
	return nil
}

func runTable1(opt experiments.Options) error {
	tbl, err := experiments.Table1(nil, nil, opt)
	if err != nil {
		return err
	}
	headers := []string{"PROCESSOR"}
	for _, b := range tbl.Budgets {
		headers = append(headers, fmt.Sprintf("Buf %d pre", b), fmt.Sprintf("Buf %d post", b))
	}
	var rows [][]string
	for _, p := range tbl.Procs {
		row := []string{p}
		for _, b := range tbl.Budgets {
			row = append(row, fmt.Sprint(tbl.Pre[b][p]), fmt.Sprint(tbl.Post[b][p]))
		}
		rows = append(rows, row)
	}
	total := []string{"TOTAL (all 17)"}
	for _, b := range tbl.Budgets {
		total = append(total, fmt.Sprint(tbl.PreTotal[b]), fmt.Sprint(tbl.PostTotal[b]))
	}
	rows = append(rows, total)
	fmt.Println("Table 1 — loss under varying total buffer size")
	if err := report.Table(os.Stdout, headers, rows); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func runSplit() error {
	d, err := experiments.SplitDemo()
	if err != nil {
		return err
	}
	fmt.Println("§2 demo — Figure 1 architecture")
	fmt.Printf("  coupled quadratic system: %d unknowns; KKT-Newton valid solution: %v (%s)\n",
		d.CoupledUnknowns, d.KKTValid, d.KKTReason)
	fmt.Printf("  after buffer insertion:   %d linear subsystems; occupation-measure optimum %.4f "+
		"(one finite solve, %d policy evaluations)\n\n", d.SplitSubsystems, d.SplitLossRate, d.SplitIters)
	return nil
}

func runHeadline(budget int, opt experiments.Options) error {
	h, err := experiments.Headline(budget, opt)
	if err != nil {
		return err
	}
	fmt.Println("§3 headline ratios")
	fmt.Printf("  CTMDP / constant sizing loss: %.2f  (paper ≈ 0.80, a ~20%% reduction)\n", h.CTMDPOverConstant)
	fmt.Printf("  CTMDP / timeout policy loss:  %.2f  (paper ≈ 0.50)\n\n", h.CTMDPOverTimeout)
	return nil
}
