package placement

import (
	"context"
	"fmt"
	"sort"
	"time"

	"socbuf/internal/core"
	"socbuf/internal/parallel"
	"socbuf/internal/solver"
)

// Place runs one full placement: DP over the spanning tree, cost-budget
// filtering, an analytic-backend screening evaluation of every frontier
// survivor on its real contracted architecture, and — unless the method is
// "analytic" — a refinement pass that re-evaluates the best-screened
// placements with the requested backend. Results are deterministic for
// every worker count (evaluations fan out but aggregate in frontier order).
func Place(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	if _, err := solver.Resolve(cfg.Method); err != nil {
		return nil, err
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("placement: budget %d must be positive", cfg.Budget)
	}
	p, err := newProblem(cfg.Arch, cfg)
	if err != nil {
		return nil, err
	}

	front, st, err := p.runDP(ctx)
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
	// are directly comparable.
	pts, err := parallel.MapCtx(ctx, len(front), cfg.Workers, func(i int) (Point, error) {
		loss, imp, err := p.evaluate(ctx, cfg, solver.MethodAnalytic, front[i].dec)
		if err != nil {
			return Point{}, fmt.Errorf("placement %s: %w", p.signature(front[i].dec), err)
		}
		pt := Point{
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
			cfg.OnEval(pt)
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}

	// Refinement: the RefineTop best-screened placements re-evaluate under
	// the requested backend; "analytic" stops at the screen.
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
		top := cfg.RefineTop
		if top > len(order) {
			top = len(order)
		}
		refined, err := parallel.MapCtx(ctx, top, cfg.Workers, func(k int) (Point, error) {
			i := order[k]
			loss, imp, err := p.evaluate(ctx, cfg, cfg.Method, front[i].dec)
			if err != nil {
				return Point{}, fmt.Errorf("placement %s: %w", p.signature(front[i].dec), err)
			}
			pt := pts[i]
			pt.Loss, pt.Improvement, pt.Method, pt.Refined = loss, imp, method, true
			if cfg.OnEval != nil {
				cfg.OnEval(pt)
			}
			return pt, nil
		})
		if err != nil {
			return nil, err
		}
		for k, pt := range refined {
			pts[order[k]] = pt
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

// evaluate sizes and simulates one placement's contracted architecture
// through the solver registry, returning the evaluated loss and the sizing
// improvement. Each evaluation runs its seeds serially — the outer fan-out
// already saturates the worker pool.
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
