package placement

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"socbuf/internal/core"
	"socbuf/internal/parallel"
	"socbuf/internal/solver"
)

// validWeights refuses a latency weight or cost budget no placement can
// honour, as a core.ErrInvalidConfig: a NaN, infinite or negative
// LatencyWeight (a NaN makes every screened J NaN, so the DP prunes
// nothing; a negative one rewards queueing), and a NaN or negative
// CostBudget (which the filter below would read as unbounded). Zero means
// the default for both.
func (c Config) validWeights() error {
	if !(c.LatencyWeight >= 0) || math.IsInf(c.LatencyWeight, 1) {
		return fmt.Errorf("placement: %w: latency weight %v must be finite and non-negative", core.ErrInvalidConfig, c.LatencyWeight)
	}
	if !(c.CostBudget >= 0) {
		return fmt.Errorf("placement: %w: cost budget %v must be non-negative", core.ErrInvalidConfig, c.CostBudget)
	}
	return nil
}

// Place runs one full placement: DP over the spanning tree, cost-budget
// filtering, an analytic-backend screening evaluation of every frontier
// survivor on its real contracted architecture, and — unless the method is
// "analytic" — a refinement pass that re-evaluates the best-screened
// placements with the requested backend. Each pass runs the solver once
// per distinct bypass set (bypassKey). Results are deterministic for
// every worker count (evaluations fan out but aggregate in frontier order).
func Place(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	if err := solver.CheckMethod(cfg.Method); err != nil {
		return nil, err
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("placement: budget %d must be positive", cfg.Budget)
	}
	if err := cfg.validWeights(); err != nil {
		return nil, err
	}
	p, err := newProblem(cfg.Arch, cfg)
	if err != nil {
		return nil, err
	}

	front, st, err := p.runDP(ctx, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	costFiltered := 0
	if cfg.CostBudget > 0 {
		kept := front[:0]
		for _, s := range front {
			if s.cost <= cfg.CostBudget {
				kept = append(kept, s)
			} else {
				costFiltered++
			}
		}
		front = kept
	}
	if len(front) == 0 {
		// Both budgets are the caller's: a core.ErrInvalidConfig, not a
		// solve failure.
		return nil, fmt.Errorf(
			"placement: %w: no feasible placement (budget %d, cost budget %g: %d placements below one unit per buffer, %d over cost budget)",
			core.ErrInvalidConfig, cfg.Budget, cfg.CostBudget, st.infeasible, costFiltered)
	}

	// Screening: evaluate every frontier placement with the analytic
	// backend — full sizing on the contracted architecture, simulated with
	// the same seeds the refinement will use, so screen and refined losses
	// are directly comparable. Placements that bypass the same bridges share
	// one contracted architecture, so each bypass set runs once.
	pts := make([]Point, len(front))
	all := make([]int, len(front))
	for i := range all {
		all[i] = i
	}
	err = p.evalGroups(ctx, cfg, solver.MethodAnalytic, front, all, func(i int, loss int64, imp float64) {
		pts[i] = Point{
			Decisions:   p.decisionsOf(front[i].dec),
			Cost:        front[i].cost,
			Buffers:     p.buffersOf(front[i].dec),
			Bypassed:    front[i].bypassed,
			ScreenJ:     front[i].j,
			ScreenLoss:  loss,
			Loss:        loss,
			Improvement: imp,
			Method:      solver.MethodAnalytic,
		}
		if cfg.OnEval != nil {
			cfg.OnEval(pts[i])
		}
	})
	if err != nil {
		return nil, err
	}

	// Refinement: the RefineTop best-screened placements re-evaluate under
	// the requested backend, once per bypass set among them; "analytic"
	// stops at the screen.
	method := solver.Canonical(cfg.Method)
	if method != solver.MethodAnalytic {
		order := make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			a, b := pts[order[x]], pts[order[y]]
			switch {
			case a.ScreenLoss != b.ScreenLoss:
				return a.ScreenLoss < b.ScreenLoss
			case a.Cost != b.Cost:
				return a.Cost < b.Cost
			default:
				return decLess(front[order[x]].dec, front[order[y]].dec)
			}
		})
		top := min(cfg.RefineTop, len(order))
		err = p.evalGroups(ctx, cfg, cfg.Method, front, order[:top], func(i int, loss int64, imp float64) {
			pts[i].Loss, pts[i].Improvement, pts[i].Method, pts[i].Refined = loss, imp, method, true
			if cfg.OnEval != nil {
				cfg.OnEval(pts[i])
			}
		})
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Arch:         cfg.Arch.Name,
		Method:       method,
		Candidates:   len(p.bridges),
		Enumerated:   p.enumerated,
		Partials:     st.partials,
		Pruned:       st.pruned,
		Infeasible:   st.infeasible,
		CostFiltered: costFiltered,
		Frontier:     pts,
	}
	for _, c := range p.cut {
		if c {
			res.Bypassable++
		}
	}
	best := 0
	for i := 1; i < len(pts); i++ {
		a, b := pts[i], pts[best]
		if a.Loss < b.Loss || (a.Loss == b.Loss && a.Cost < b.Cost) {
			best = i
		}
	}
	res.Chosen = pts[best]
	return res, nil
}

// bypassKey is the part of a decision vector that apply reads: one byte
// per bridge, set where the bridge is bypassed. A buffer type reaches only
// the contracted architecture's Name, which no sizing, simulation or cache
// key reads, so placements with equal keys evaluate to the same loss and
// improvement under every backend.
func bypassKey(dec []int8) string {
	k := make([]byte, len(dec))
	for i, d := range dec {
		if d == optBypass {
			k[i] = 1
		}
	}
	return string(k)
}

// evalGroups evaluates the placements front[i], i in idx, under method:
// one solver run per distinct bypass set, on the set's first point in idx
// order, fanned out over the worker pool. set receives every point's index
// with its set's loss and improvement, from the worker that ran the set as
// soon as the run completes; each index arrives once, so set may write the
// point's own slot without locking.
func (p *problem) evalGroups(ctx context.Context, cfg Config, method string, front []scored, idx []int, set func(i int, loss int64, imp float64)) error {
	at := map[string]int{}
	var groups [][]int
	for _, i := range idx {
		k := bypassKey(front[i].dec)
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return parallel.ForEachCtx(ctx, len(groups), cfg.Workers, func(g int) error {
		dec := front[groups[g][0]].dec
		loss, imp, err := p.evaluate(ctx, cfg, method, dec)
		if err != nil {
			return fmt.Errorf("placement %s: %w", p.signature(dec), err)
		}
		for _, i := range groups[g] {
			set(i, loss, imp)
		}
		return nil
	})
}

// evaluate sizes and simulates one placement's contracted architecture
// through the solver registry, returning the evaluated loss and the sizing
// improvement. Each evaluation runs its seeds serially: the fan-out over
// bypass sets is an evaluation pass's only parallelism, so a pass with
// fewer sets than workers (a mesh screens one) leaves the spare workers
// idle. The DP before the passes spreads over the same workers (runDP).
func (p *problem) evaluate(ctx context.Context, cfg Config, method string, dec []int8) (int64, float64, error) {
	contracted, err := p.apply(dec)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	res, err := solver.Run(ctx, core.Config{
		Arch:       contracted,
		Budget:     cfg.Budget,
		Iterations: cfg.Iterations,
		Seeds:      cfg.Seeds,
		Horizon:    cfg.Horizon,
		WarmUp:     cfg.WarmUp,
		Workers:    1,
		Cache:      cfg.Cache,
		Method:     method,
	})
	if cfg.RunObserver != nil {
		cfg.RunObserver(solver.Canonical(method), time.Since(start))
	}
	if err != nil {
		return 0, 0, err
	}
	return res.Best.SimLoss, res.Improvement(), nil
}
