package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/engine"
	"socbuf/internal/experiments"
	"socbuf/internal/placement"
	"socbuf/internal/report"
	"socbuf/internal/sim"
	"socbuf/internal/solvecache"
	"socbuf/internal/solver"
)

// unrolled replays a request through the public calls beneath httpapi —
// the strict decode, the engine's fingerprint and backend call, and the
// JSON encode — doing what socbufd's handler and engine do for it, with a
// span around each call. The exact backend is core.RunCtx, so it is
// unrolled further into core.NewStepper and Stepper.Step.
//
// Simulations cannot be timed inside the calls that run them, so after
// each methodology run every evaluation simulation it reported is run again
// through sim.New(...).Run(), and must reproduce the reported loss. The
// prologue of a non-exact backend runs inside solver.Run, so it is timed
// by calling core.NewStepper once more on its own.
type unrolled struct {
	tr      *tracer
	cache   *solvecache.Cache // the engine's shared solve cache
	acc     totals
	pending []func() error // re-runs of the current request's calls
}

// totals accumulates the unrolled replay's layer times and counts.
type totals struct {
	unrolled, decode, encode, call, fingerprint, backend time.Duration
	solverRun, screen, prologue, lp                      time.Duration
	place, eval, sim                                     time.Duration
	simRuns, packets, partials, pruned                   int64
}

// handle replays one request and returns the body the handler would send.
func (u *unrolled) handle(ctx context.Context, r request) ([]byte, error) {
	root := u.tr.begin("httpapi", "httpapi.unrolled", 0)
	var out bytes.Buffer
	var err error
	switch r.path {
	case pathSolve:
		err = u.solveRequest(ctx, r.body, root, &out)
	case pathSweep:
		err = u.sweepRequest(ctx, r.body, root, &out)
	case pathPlacement:
		err = u.placementRequest(ctx, r.body, root, &out)
	default:
		err = fmt.Errorf("no unrolled replay for %s", r.path)
	}
	u.acc.unrolled += u.tr.end(root)
	pending := u.pending
	u.pending = nil
	if err != nil {
		return nil, err
	}
	for _, rerun := range pending {
		if err := rerun(); err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// decode is httpapi's strict decode: unknown fields and trailing data fail.
func (u *unrolled) decode(body []byte, v any, parent int) error {
	id := u.tr.begin("httpapi", "httpapi.decode", parent)
	defer func() { u.acc.decode += u.tr.end(id) }()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

// encode writes the response lines as httpapi does: a single indented JSON
// document, or one compact line per value for the NDJSON streams.
func (u *unrolled) encode(out *bytes.Buffer, parent int, indent bool, lines ...any) error {
	id := u.tr.begin("httpapi", "httpapi.encode", parent)
	defer func() { u.acc.encode += u.tr.end(id) }()
	enc := json.NewEncoder(out)
	if indent {
		enc.SetIndent("", "  ")
	}
	for _, v := range lines {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// fingerprint times the request's routing and coalescing identity.
func (u *unrolled) fingerprint(req interface{ Fingerprint() string }, parent int) {
	id := u.tr.begin("engine", "engine.fingerprint", parent)
	_ = req.Fingerprint()
	u.acc.fingerprint += u.tr.end(id)
}

// resolveArch builds the architecture a request names, as the engine does.
func resolveArch(name string, raw json.RawMessage) (*arch.Architecture, error) {
	if len(raw) > 0 {
		return arch.ReadJSON(bytes.NewReader(raw))
	}
	switch name {
	case "", "netproc":
		return arch.NetworkProcessor(), nil
	case "figure1":
		return arch.Figure1(), nil
	case "twobus":
		return arch.TwoBusAMBA(), nil
	}
	return nil, fmt.Errorf("unknown architecture %q", name)
}

func (u *unrolled) solveRequest(ctx context.Context, body []byte, root int, out *bytes.Buffer) error {
	var req engine.SolveRequest
	if err := u.decode(body, &req, root); err != nil {
		return err
	}
	req.UseCache = true // socbufd's default
	call := u.tr.begin("engine", "engine.call", root)
	res, err := func() (*engine.SolveResult, error) {
		u.fingerprint(req, call)
		a, err := resolveArch(req.Arch, req.ArchJSON)
		if err != nil {
			return nil, err
		}
		run, d, err := u.solve(ctx, core.Config{
			Arch: a, Budget: req.Budget, Iterations: req.Iterations, Seeds: req.Seeds,
			Horizon: req.Horizon, WarmUp: req.WarmUp, Method: req.Method,
			Uncertainty: req.Uncertainty, RefineStationary: req.Refine, Workers: 1, Cache: u.cache,
		}, call)
		u.acc.backend += d
		if err != nil {
			return nil, err
		}
		return solveResult(solver.Canonical(req.Method), run), nil
	}()
	u.acc.call += u.tr.end(call)
	if err != nil {
		return err
	}
	return u.encode(out, root, true, res)
}

// solveResult shapes a methodology run as the engine's SolveResult.
func solveResult(method string, res *core.Result) *engine.SolveResult {
	out := &engine.SolveResult{
		Arch: res.Arch.Name, Method: method, Budget: res.BaselineAlloc.Total(),
		Iterations: len(res.Iterations), Subsystems: len(res.Subsystems),
		UniformLoss: res.BaselineLoss, SizedLoss: res.Best.SimLoss, Improvement: res.Improvement(),
		BestIteration: res.Best.Index, CapBinding: res.Best.CapBinding,
		RandomisedStates: res.Best.RandomisedStates, Robust: res.Robust,
	}
	for _, id := range report.SortedKeys(res.Best.Alloc) {
		out.Alloc = append(out.Alloc, engine.AllocRow{Buffer: id, Uniform: res.BaselineAlloc[id], Sized: res.Best.Alloc[id]})
	}
	return out
}

// solve runs one methodology configuration the way solver.Run dispatches
// it, under a solver.run span, and queues the re-runs that time its parts
// for after the request. It returns the run and the span's duration.
func (u *unrolled) solve(ctx context.Context, cfg core.Config, parent int) (*core.Result, time.Duration, error) {
	exact := solver.Canonical(cfg.Method) == solver.MethodExact
	plain := cfg
	plain.Method = "" // what solver.Run hands a backend
	run := u.tr.begin("solver", "solver.run", parent)
	var res *core.Result
	var norm core.Config
	var prologue time.Duration
	var steps []time.Duration
	err := func() error {
		if !exact {
			var err error
			res, err = solver.Run(ctx, cfg)
			return err
		}
		id := u.tr.begin("core", "core.prologue", run)
		s, err := core.NewStepper(ctx, plain)
		prologue = u.tr.end(id)
		if err != nil {
			return err
		}
		norm = s.Config()
		for it := 0; it < norm.Iterations; it++ {
			id := u.tr.begin("core", "core.step", run)
			_, err := s.Step(ctx)
			steps = append(steps, u.tr.end(id))
			if err != nil {
				return err
			}
		}
		res, err = s.Result()
		return err
	}()
	runD := u.tr.end(run)
	if err != nil {
		return nil, runD, err
	}
	u.acc.solverRun += runD
	// The re-runs must not land inside the request's spans: they wait
	// until the request is done.
	u.pending = append(u.pending, func() error {
		if !exact {
			id := u.tr.begin("core", "core.prologue", 0)
			s, err := core.NewStepper(ctx, plain)
			prologue = u.tr.end(id)
			if err != nil {
				return err
			}
			norm = s.Config()
		}
		iters, err := u.replaySims(res, norm)
		if err != nil {
			return err
		}
		u.acc.prologue += prologue
		if exact {
			for i, st := range steps {
				u.acc.lp += st - iters[i]
			}
			return nil
		}
		u.acc.screen += runD - prologue
		for _, d := range iters {
			u.acc.screen -= d
		}
		return nil
	})
	return res, runD, nil
}

// replaySims re-runs the baseline and every iteration's evaluation
// simulations of res under the arbitration the run used, checks that they
// lose exactly what the run reported, and returns each iteration's
// simulation time.
func (u *unrolled) replaySims(res *core.Result, cfg core.Config) ([]time.Duration, error) {
	run := func(alloc arch.Allocation, sol *ctmdp.JointSolution, want int64) (time.Duration, error) {
		var total time.Duration
		var lost int64
		for _, seed := range cfg.Seeds {
			var arbiters map[string]sim.Arbiter
			if sol != nil {
				var err error
				if arbiters, err = core.Arbiters(res.Arch, sol, alloc); err != nil {
					return 0, err
				}
			}
			id := u.tr.begin("sim", "sim.run", 0)
			s, err := sim.New(sim.Config{Arch: res.Arch, Alloc: alloc, Horizon: cfg.Horizon, WarmUp: cfg.WarmUp, Seed: seed, Arbiters: arbiters})
			var r *sim.Results
			if err == nil {
				r, err = s.Run()
			}
			d := u.tr.end(id)
			if err != nil {
				return 0, err
			}
			total += d
			lost += r.TotalLost()
			u.acc.simRuns++
			u.acc.packets += r.TotalGenerated()
		}
		if lost != want {
			return 0, fmt.Errorf("re-run simulations lost %d packets where the run reported %d", lost, want)
		}
		u.acc.sim += total
		return total, nil
	}
	if _, err := run(res.BaselineAlloc, nil, res.BaselineLoss); err != nil {
		return nil, err
	}
	var iters []time.Duration
	for _, it := range res.Iterations {
		d, err := run(it.Alloc, it.Solution, it.SimLoss)
		if err != nil {
			return nil, err
		}
		iters = append(iters, d)
	}
	return iters, nil
}

// sweepRequest replays experiments.CachedBudgetSweepCtx with its points
// run one after another: plan, prewarm one cold solve per structural class,
// then every budget point.
func (u *unrolled) sweepRequest(ctx context.Context, body []byte, root int, out *bytes.Buffer) error {
	var req engine.BudgetSweepRequest
	if err := u.decode(body, &req, root); err != nil {
		return err
	}
	call := u.tr.begin("engine", "engine.call", root)
	var rows []experiments.BudgetRow
	a, err := func() (*arch.Architecture, error) {
		u.fingerprint(req, call)
		a, err := resolveArch(req.Arch, req.ArchJSON)
		if err != nil {
			return nil, err
		}
		sweep := u.tr.begin("solver", "experiments.sweep", call)
		defer func() { u.acc.backend += u.tr.end(sweep) }()
		opt := experiments.Options{Iterations: req.Iterations, Seeds: req.Seeds, Horizon: req.Horizon,
			WarmUp: req.WarmUp, Workers: 1, Cache: u.cache, Method: req.Method, Uncertainty: req.Uncertainty}
		newArch := func() *arch.Architecture { return a.Clone() }
		method := func(i int) string {
			if i < len(req.Methods) && req.Methods[i] != "" {
				return req.Methods[i]
			}
			return req.Method
		}
		exactTier := false
		for i := range req.Budgets {
			exactTier = exactTier || solver.Canonical(method(i)) != solver.MethodAnalytic
		}
		if exactTier {
			id := u.tr.begin("solver", "experiments.plan", sweep)
			plan, err := experiments.PlanBudgetSweep(newArch, req.Budgets, opt)
			u.tr.end(id)
			if err != nil {
				return nil, err
			}
			id = u.tr.begin("solver", "experiments.prewarm", sweep)
			err = plan.PrewarmCtx(ctx, u.cache, 1)
			u.acc.lp += u.tr.end(id) // cold LP solves
			if err != nil {
				return nil, err
			}
		}
		// experiments.Options defaults for the points.
		iters, seeds, horizon, warm := req.Iterations, req.Seeds, req.Horizon, req.WarmUp
		if iters == 0 {
			iters = 10
		}
		if len(seeds) == 0 {
			seeds = []int64{1, 2, 3, 4, 5}
		}
		if horizon == 0 {
			horizon = 2000
		}
		if warm == 0 {
			warm = 100
		}
		for i, b := range req.Budgets {
			res, _, err := u.solve(ctx, core.Config{Arch: newArch(), Budget: b, Iterations: iters, Seeds: seeds,
				Horizon: horizon, WarmUp: warm, Workers: 1, Cache: u.cache, Method: method(i), Uncertainty: req.Uncertainty}, sweep)
			if err != nil {
				return nil, fmt.Errorf("budget %d: %w", b, err)
			}
			m := method(i)
			if m == solver.MethodExact {
				m = ""
			}
			rows = append(rows, experiments.BudgetRow{Budget: b, Method: m, UniformLoss: res.BaselineLoss,
				SizedLoss: res.Best.SimLoss, Improvement: res.Improvement(), Robust: res.Robust})
		}
		return a, nil
	}()
	u.acc.call += u.tr.end(call)
	if err != nil {
		return err
	}
	lines := make([]any, 0, len(rows)+1)
	for _, row := range rows {
		lines = append(lines, struct {
			Point experiments.BudgetRow `json:"point"`
		}{row})
	}
	lines = append(lines, map[string]any{"summary": map[string]any{"arch": a.Name, "points": rows}})
	return u.encode(out, root, false, lines...)
}

// placementRequest replays engine.Placement: normalise, look the whole
// result up in the placement tier, else run placement.Place (whose
// per-placement solver runs are reported by its RunObserver) and store it.
func (u *unrolled) placementRequest(ctx context.Context, body []byte, root int, out *bytes.Buffer) error {
	var req engine.PlacementRequest
	if err := u.decode(body, &req, root); err != nil {
		return err
	}
	call := u.tr.begin("engine", "engine.call", root)
	var evals []any
	res, err := func() (*engine.PlacementResult, error) {
		u.fingerprint(req, call)
		a, err := resolveArch(req.Arch, req.ArchJSON)
		if err != nil {
			return nil, err
		}
		pc := placement.Config{Arch: a, Types: req.Types, Budget: req.Budget, CostBudget: req.CostBudget,
			LatencyWeight: req.LatencyWeight, Method: solver.Canonical(req.Method), RefineTop: req.RefineTop,
			Iterations: req.Iterations, Seeds: req.Seeds, Horizon: req.Horizon, WarmUp: req.WarmUp,
			Workers: 1, Cache: u.cache}.WithDefaults()
		var buf bytes.Buffer
		if err := a.WriteJSON(&buf); err != nil {
			return nil, err
		}
		meta := solvecache.PlacementMeta{Budget: pc.Budget, CostBudget: pc.CostBudget, LatencyWeight: pc.LatencyWeight,
			Method: pc.Method, RefineTop: pc.RefineTop, Iterations: pc.Iterations, Seeds: pc.Seeds,
			Horizon: pc.Horizon, WarmUp: pc.WarmUp}
		for _, t := range pc.Types {
			meta.TypeNames = append(meta.TypeNames, t.Name)
			meta.TypeCosts = append(meta.TypeCosts, t.Cost)
			meta.TypeDelays = append(meta.TypeDelays, t.Delay)
		}
		key := solvecache.PlacementFingerprint(buf.Bytes(), meta)
		if b, ok := u.cache.LookupPlacement(key); ok {
			res := &engine.PlacementResult{}
			if err := json.Unmarshal(b, res); err != nil {
				return nil, err
			}
			res.Cached = true
			return res, nil
		}
		place := u.tr.begin("placement", "placement.place", call)
		pc.OnEval = func(p placement.Point) {
			evals = append(evals, struct {
				Eval placement.Point `json:"eval"`
			}{p})
		}
		pc.RunObserver = func(_ string, wall time.Duration) {
			u.tr.add("solver", "solver.run", place, wall)
			u.acc.eval += wall
			u.acc.solverRun += wall
		}
		pr, err := placement.Place(ctx, pc)
		d := u.tr.end(place)
		u.acc.place += d
		u.acc.backend += d
		if err != nil {
			return nil, err
		}
		u.acc.partials += int64(pr.Partials)
		u.acc.pruned += int64(pr.Pruned)
		res := &engine.PlacementResult{Budget: pc.Budget, Types: pc.Types, CostBudget: pc.CostBudget,
			LatencyWeight: pc.LatencyWeight, Result: *pr}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		u.cache.PutPlacement(key, b)
		return res, nil
	}()
	u.acc.call += u.tr.end(call)
	if err != nil {
		return err
	}
	return u.encode(out, root, false, append(evals, struct {
		Summary *engine.PlacementResult `json:"summary"`
	}{res})...)
}
