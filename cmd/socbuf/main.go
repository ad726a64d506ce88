// Command socbuf runs the buffer-insertion and sizing methodology on a named
// preset architecture, a JSON architecture, or a registered scenario, and
// prints the resulting allocation and loss comparison.
//
//	socbuf -arch netproc -budget 160 -iters 10
//	socbuf -arch netproc -budget 160 -method analytic
//	socbuf -arch netproc -sweep 160,320,640 -parallel 8
//	socbuf -arch netproc -sweep 160,320,640 -cache-stats
//	socbuf -sweep 160,320,640 -method analytic -methods ,,exact
//	socbuf -scenario chain6-bursty
//	socbuf -scenario chain6 -place -method hybrid
//	socbuf -place -buffer-types lite:1:0.5,fast:4:0.05 -cost-budget 8
//	socbuf -list-scenarios
//
// -method selects the solver backend (exact | analytic | hybrid | robust; see
// README "Choosing a solver method"). -methods overrides it per sweep
// point — the example above screens the first two budgets analytically and
// solves only the last exactly.
//
// -sweep runs the methodology at each listed budget through the parallel
// sweep engine instead of a single run; -parallel bounds its worker pool
// (0 = GOMAXPROCS). Results are identical for every worker count.
//
// -cache routes every solve through a shared solve cache
// (internal/solvecache): sweeps additionally fingerprint all points up
// front and prewarm one solve per distinct sub-model fingerprint.
// -cache-stats implies -cache and prints the hit/miss counters afterwards
// (see PERFORMANCE.md for how to read them).
//
// -scenario runs one registry scenario (its generated topology, traffic
// model and budget); explicitly-set -budget/-iters/-horizon flags override
// the scenario's own values. -list-scenarios prints the registry.
//
// -place makes buffer insertion itself the decision variable: instead of
// buffering every bridge, a Van Ginneken-style dynamic program decides per
// bridge whether to insert a decoupling buffer pair (and of which
// -buffer-types catalogue entry) or to bypass it, merging its buses. The
// frontier survivors are screened analytically and the best -refine-top of
// them refined with -method. -cost-budget caps the summed insertion cost;
// DESIGN.md §7 documents the placement contract.
//
// -json emits results as JSON instead of tables.
//
// socbuf is a thin client of internal/engine — the same request/response
// API served over HTTP by cmd/socbufd.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"socbuf/internal/cliutil"
	"socbuf/internal/engine"
	"socbuf/internal/experiments"
	"socbuf/internal/placement"
	"socbuf/internal/report"
)

func main() {
	var (
		name    = flag.String("arch", "netproc", "preset: "+cliutil.PresetNames)
		file    = flag.String("file", "", "load a JSON architecture instead of a preset")
		scen    = flag.String("scenario", "", "run a registered scenario instead of a preset (see -list-scenarios)")
		list    = flag.Bool("list-scenarios", false, "print the scenario registry and exit")
		budget  = flag.Int("budget", 160, "total buffer budget in units")
		iters   = flag.Int("iters", 10, "methodology iterations")
		horiz   = flag.Float64("horizon", 2000, "evaluation sim horizon")
		sweep   = flag.String("sweep", "", "comma-separated budgets: sweep instead of a single run")
		methods = flag.String("methods", "", "per-point solver backends for -sweep, comma-aligned with the budgets (empty entries inherit -method)")

		place     = flag.Bool("place", false, "run the buffer-placement DP instead of sizing a fixed insertion (see README \"Buffer placement\")")
		bufTypes  = flag.String("buffer-types", "", "insertion catalogue for -place as name:cost:delay,... (empty = lite/std/fast defaults)")
		costBud   = flag.Float64("cost-budget", 0, "cap on summed insertion cost for -place (0 = unbounded)")
		latWeight = flag.Float64("latency-weight", 0, "screened latency weight in the -place DP objective (0 = 0.1 default)")
		refineTop = flag.Int("refine-top", 0, "how many screened placements -place refines with -method (0 = 3 default)")
	)
	method := cliutil.AddMethodFlag(nil)
	robust := cliutil.AddRobustFlags(nil)
	common := cliutil.AddCommonFlags(nil)
	flag.Parse()
	if err := common.Validate(); err != nil {
		fatal(err)
	}

	if *list {
		if err := engine.WriteScenarioList(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	eng := engine.New(engine.Config{Workers: common.Parallel})
	defer eng.Close()
	// Registered after the solve-free early exits so -cache-stats only ever
	// reports a cache that actually fielded solves. Under -json the counters
	// go to stderr so stdout stays one parseable document.
	defer func() {
		if common.CacheStats {
			out := common.StatsWriter()
			fmt.Fprintln(out)
			if err := eng.WriteCacheStats(out); err != nil {
				fatal(err)
			}
		}
	}()
	ctx := context.Background()

	var archJSON json.RawMessage
	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		archJSON = raw
	}

	// -methods names per-sweep-point backends; outside a sweep there are no
	// points, and silently running the default backend instead would defeat
	// the user's explicit selection.
	if *methods != "" && *sweep == "" {
		fatal(fmt.Errorf("%w: -methods only applies to -sweep (use -method for a single run)", engine.ErrInvalidRequest))
	}

	if *place {
		if *sweep != "" {
			fatal(fmt.Errorf("%w: -place cannot be combined with -sweep", engine.ErrInvalidRequest))
		}
		types, err := placement.ParseCatalogue(*bufTypes)
		if err != nil {
			fatal(fmt.Errorf("%w: %v", engine.ErrInvalidRequest, err))
		}
		req := engine.PlacementRequest{
			Method:        *method,
			Types:         types,
			CostBudget:    *costBud,
			LatencyWeight: *latWeight,
			RefineTop:     *refineTop,
			UseCache:      common.UseCache(),
		}
		if *scen != "" {
			if *file != "" {
				fatal(fmt.Errorf("-scenario cannot be combined with -file"))
			}
			req.Scenario = *scen
			// Explicitly-set flags override the scenario's own values.
			set := cliutil.SetFlags(nil)
			if set["budget"] {
				req.Budget = *budget
			}
			if set["iters"] {
				req.Iterations = *iters
			}
			if set["horizon"] {
				req.Horizon = *horiz
			}
		} else {
			req.Arch = archFor(*file, *name)
			req.ArchJSON = archJSON
			req.Budget = *budget
			req.Iterations = *iters
			req.Horizon = *horiz
		}
		res, err := eng.Placement(ctx, req)
		if err != nil {
			fatal(err)
		}
		if common.JSON {
			cliutil.PrintJSON("socbuf", res)
			return
		}
		printPlacement(res)
		return
	}

	if *scen != "" {
		if *sweep != "" || *file != "" {
			fatal(fmt.Errorf("-scenario cannot be combined with -sweep or -file"))
		}
		req := engine.SolveRequest{
			Scenario: *scen,
			Method:   *method,
			UseCache: common.UseCache(),
		}
		// Explicitly-set flags override the scenario's own values.
		set := cliutil.SetFlags(nil)
		req.Uncertainty = robust.Spec(set)
		if set["budget"] {
			req.Budget = *budget
		}
		if set["iters"] {
			req.Iterations = *iters
		}
		if set["horizon"] {
			req.Horizon = *horiz
		}
		res, err := eng.Solve(ctx, req)
		if err != nil {
			fatal(err)
		}
		if common.JSON {
			cliutil.PrintJSON("socbuf", res)
			return
		}
		fmt.Printf("scenario %s — %s, traffic %s\n", res.Scenario, res.Topology, res.Traffic)
		printResult(res)
		return
	}

	if *sweep != "" {
		budgets, err := experiments.ParseBudgets(*sweep)
		if err != nil {
			fatal(err)
		}
		res, err := eng.BudgetSweep(ctx, engine.BudgetSweepRequest{
			Arch:        archFor(*file, *name),
			ArchJSON:    archJSON,
			Budgets:     budgets,
			Iterations:  *iters,
			Horizon:     *horiz,
			Method:      *method,
			Methods:     experiments.ParseMethods(*methods),
			Uncertainty: robust.Spec(cliutil.SetFlags(nil)),
			UseCache:    common.UseCache(),
		})
		if res == nil {
			fatal(err)
		}
		if common.JSON {
			if werr := res.Sweep.WriteJSON(os.Stdout); werr != nil {
				fatal(werr)
			}
		} else {
			if res.Plan != nil {
				fmt.Println("sweep plan:")
				if werr := res.Plan.WriteSummary(os.Stdout); werr != nil {
					fatal(werr)
				}
				fmt.Println()
			}
			fmt.Printf("architecture %s — budget sweep, %d points, %d iterations each\n",
				res.ArchName, len(budgets), *iters)
			if werr := res.Sweep.WriteTable(os.Stdout); werr != nil {
				fatal(werr)
			}
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	res, err := eng.Solve(ctx, engine.SolveRequest{
		Arch:        archFor(*file, *name),
		ArchJSON:    archJSON,
		Budget:      *budget,
		Iterations:  *iters,
		Horizon:     *horiz,
		Method:      *method,
		Uncertainty: robust.Spec(cliutil.SetFlags(nil)),
		UseCache:    common.UseCache(),
	})
	if err != nil {
		fatal(err)
	}
	if common.JSON {
		cliutil.PrintJSON("socbuf", res)
		return
	}
	printResult(res)
}

// archFor resolves the mutually exclusive -file/-arch pair into request
// fields: a loaded file suppresses the preset name.
func archFor(file, name string) string {
	if file != "" {
		return ""
	}
	return name
}

func fatal(err error) { cliutil.Fatal("socbuf", err) }

// printPlacement renders the placement summary, the evaluated frontier and
// the chosen placement.
func printPlacement(res *engine.PlacementResult) {
	if res.Scenario != "" {
		fmt.Printf("scenario %s — %s, traffic %s\n", res.Scenario, res.Topology, res.Traffic)
	}
	fmt.Printf("architecture %s — buffer placement, budget %d, method %s\n",
		res.Arch, res.Budget, res.Method)
	if res.Cached {
		fmt.Println("served from the placement cache tier (no new evaluations)")
	}
	fmt.Printf("candidates: %d bridges (%d bypassable), placement space %d\n",
		res.Candidates, res.Bypassable, res.Enumerated)
	fmt.Printf("DP partials: %d (%d pruned as dominated), %d capacity-infeasible, %d over cost budget\n\n",
		res.Partials, res.Pruned, res.Infeasible, res.CostFiltered)

	headers := []string{"COST", "buffers", "bypassed", "screenJ", "loss", "method", "placement"}
	var rows [][]string
	for _, pt := range res.Frontier {
		m := pt.Method
		if !pt.Refined {
			m += " (screen)"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%g", pt.Cost),
			fmt.Sprint(pt.Buffers),
			fmt.Sprint(pt.Bypassed),
			fmt.Sprintf("%.4f", pt.ScreenJ),
			fmt.Sprint(pt.Loss),
			m,
			placement.DecisionString(pt.Decisions),
		})
	}
	if err := report.Table(os.Stdout, headers, rows); err != nil {
		fatal(err)
	}
	fmt.Printf("\nchosen: cost %g, loss %d (%.1f%% sizing reduction) — %s\n",
		res.Chosen.Cost, res.Chosen.Loss, res.Chosen.Improvement*100, placement.DecisionString(res.Chosen.Decisions))
}

// printResult renders the single-run summary and allocation table. The
// solver method appears only when it is not the exact default, keeping the
// default invocation's output byte-identical to the pre-backend CLI.
func printResult(res *engine.SolveResult) {
	fmt.Printf("architecture %s, budget %d, %d iterations\n", res.Arch, res.Budget, res.Iterations)
	if res.Method != "" && res.Method != "exact" {
		fmt.Printf("solver method: %s\n", res.Method)
	}
	fmt.Printf("subsystems after buffer insertion: %d (all linear)\n", res.Subsystems)
	fmt.Printf("baseline (uniform) loss: %d\n", res.UniformLoss)
	fmt.Printf("best sized loss:         %d  (%.1f%% reduction, iteration %d)\n",
		res.SizedLoss, res.Improvement*100, res.BestIteration)
	fmt.Printf("occupancy cap binding: %v, randomised states: %d\n",
		res.CapBinding, res.RandomisedStates)
	if r := res.Robust; r != nil {
		fmt.Printf("chance constraint: yield %.3f (Wilson low %.3f) at confidence %.2f over %d samples — met: %v, budget used %d\n",
			r.Yield, r.YieldLow, r.Confidence, r.Samples, r.Met, r.BudgetUsed)
	}
	fmt.Println()

	headers := []string{"buffer", "uniform", "sized"}
	var rows [][]string
	for _, a := range res.Alloc {
		rows = append(rows, []string{a.Buffer, fmt.Sprint(a.Uniform), fmt.Sprint(a.Sized)})
	}
	if err := report.Table(os.Stdout, headers, rows); err != nil {
		fatal(err)
	}
}
