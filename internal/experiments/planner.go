package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/parallel"
	"socbuf/internal/report"
	"socbuf/internal/solvecache"
	"socbuf/internal/solver"
)

// SweepPlan is the up-front fingerprint analysis of a budget sweep: every
// point's initial sub-models are fingerprinted before any point runs, so the
// sweep knows how much solve work is genuinely unique. Budget points share
// their entire boundary-lambda trajectory (capacities never enter the
// cap-free programs), so the structural count is the real number of cold
// solves the fleet's first wave needs.
type SweepPlan struct {
	// Budgets lists the planned points (invalid points are dropped here and
	// left to the sweep itself to report).
	Budgets []int
	// Skipped pairs each unplannable budget with its error.
	Skipped []BudgetError
	// Models is the total sub-model count across all points.
	Models int
	// UniqueExact counts distinct full fingerprints (capacities included).
	UniqueExact int
	// UniqueStructural counts distinct structural fingerprints — the number
	// of cold solves needed to warm-start every point's first iteration.
	UniqueStructural int

	// representatives holds one model per structural class, in first-seen
	// order, for PrewarmCtx.
	representatives []*ctmdp.Model
}

// PlanBudgetSweep fingerprints every point of a budget sweep up front:
// each budget's buffered architecture, uniform allocation and initial
// boundary sub-models, keyed exactly as the sweep's own solves will be.
// newArch follows the BudgetSweepCtx contract (nil = the network processor).
func PlanBudgetSweep(newArch func() *arch.Architecture, budgets []int, opt Options) (*SweepPlan, error) {
	if len(budgets) == 0 {
		return nil, errors.New("experiments: empty budget sweep plan")
	}
	if newArch == nil {
		newArch = arch.NetworkProcessor
	}
	opts := solvecache.SolveOptions{} // BudgetSweepCtx solves with default options
	plan := &SweepPlan{}
	exact := map[solvecache.Key]bool{}
	structural := map[solvecache.Key]bool{}
	for _, b := range budgets {
		models, err := initialModels(newArch(), b)
		if err != nil {
			plan.Skipped = append(plan.Skipped, BudgetError{Budget: b, Err: err})
			continue
		}
		plan.Budgets = append(plan.Budgets, b)
		plan.Models += len(models)
		for _, m := range models {
			exact[solvecache.Fingerprint(m, opts)] = true
			sk := solvecache.StructuralFingerprint(m, opts)
			if !structural[sk] {
				structural[sk] = true
				plan.representatives = append(plan.representatives, m)
			}
		}
	}
	plan.UniqueExact = len(exact)
	plan.UniqueStructural = len(structural)
	if len(plan.Budgets) == 0 {
		return plan, fmt.Errorf("experiments: no plannable budgets: %w", plan.Skipped[0].Err)
	}
	return plan, nil
}

// initialModels rebuilds the sub-models a sweep point starts from: buffered
// clone, uniform allocation, loss-free boundary — the same construction
// core.Run performs before its first solve.
func initialModels(a *arch.Architecture, budget int) ([]*ctmdp.Model, error) {
	buffered := a.Clone()
	buffered.InsertBridgeBuffers()
	if err := buffered.Validate(); err != nil {
		return nil, err
	}
	alloc, err := arch.UniformAllocation(buffered, budget)
	if err != nil {
		return nil, err
	}
	return core.BuildSubsystemModels(buffered, alloc, core.Config{Arch: buffered, Budget: budget})
}

// PrewarmCtx cold-solves one representative per structural class into the
// cache, fanning the solves across the worker pool. After it, every point's
// first-iteration solves are warm starts at worst; the shared boundary
// trajectory then keeps later iterations deduplicated as the first worker to
// reach each new lambda vector populates it for the fleet.
func (p *SweepPlan) PrewarmCtx(ctx context.Context, c *solvecache.Cache, workers int) error {
	if c == nil {
		return errors.New("experiments: prewarm needs a cache")
	}
	return parallel.ForEachCtx(ctx, len(p.representatives), workers, func(i int) error {
		_, err := c.SolveJoint([]*ctmdp.Model{p.representatives[i]}, ctmdp.JointConfig{})
		return err
	})
}

// WriteSummary renders the plan in the shared report format.
func (p *SweepPlan) WriteSummary(w io.Writer) error {
	headers := []string{"POINTS", "sub-models", "unique", "structural"}
	rows := [][]string{{
		fmt.Sprint(len(p.Budgets)),
		fmt.Sprint(p.Models),
		fmt.Sprint(p.UniqueExact),
		fmt.Sprint(p.UniqueStructural),
	}}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	for _, s := range p.Skipped {
		if _, err := fmt.Fprintf(w, "  SKIPPED budget %d: %v\n", s.Budget, s.Err); err != nil {
			return err
		}
	}
	return nil
}

// usesExactTier reports whether any sweep point runs an exact-family
// backend (exact or hybrid — both solve CTMDP sub-models the plan's
// prewarmed entries can serve). An all-analytic sweep has nothing to
// prewarm: the analytic tier caches whole-architecture sizings, not
// sub-model solves.
func usesExactTier(opt Options, points int) bool {
	for i := 0; i < points; i++ {
		if solver.Canonical(opt.pointMethod(i)) != solver.MethodAnalytic {
			return true
		}
	}
	return false
}

// CachedBudgetSweepCtx is the planned, cache-shared variant of
// BudgetSweepCtx: fingerprint all points, prewarm one solve per structural
// class, then run the sweep with every point sharing opt.Cache (created when
// nil). Cancellation is threaded through planning, prewarming and the sweep
// itself. Sweeps whose every point runs the analytic backend skip the
// (exact-tier) planning and prewarm entirely and return a nil plan — the
// shared cache still serves their analytic tier.
func CachedBudgetSweepCtx(ctx context.Context, newArch func() *arch.Architecture, budgets []int, opt Options) (*BudgetSweepResult, *SweepPlan, error) {
	if opt.Cache == nil {
		opt.Cache = solvecache.New()
	}
	if !usesExactTier(opt, len(budgets)) {
		res, err := BudgetSweepCtx(ctx, newArch, budgets, opt)
		return res, nil, err
	}
	plan, err := PlanBudgetSweep(newArch, budgets, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.PrewarmCtx(ctx, opt.Cache, opt.Workers); err != nil {
		return nil, plan, err
	}
	res, err := BudgetSweepCtx(ctx, newArch, budgets, opt)
	return res, plan, err
}

// SweepWithPlanCtx is the engine's sweep dispatch: with opt.Cache set it
// plans, prewarms and runs the cache-shared sweep and hands the plan back;
// otherwise it runs the plain BudgetSweepCtx and returns a nil plan. Both
// give the same rows: a shared cache only saves work.
func SweepWithPlanCtx(ctx context.Context, newArch func() *arch.Architecture, budgets []int, opt Options) (*BudgetSweepResult, *SweepPlan, error) {
	if opt.Cache == nil {
		res, err := BudgetSweepCtx(ctx, newArch, budgets, opt)
		return res, nil, err
	}
	return CachedBudgetSweepCtx(ctx, newArch, budgets, opt)
}

// WriteCacheStats renders a cache-counter snapshot in the shared report
// format (the body of both CLIs' -cache-stats flag): the raw counters, then
// the derived per-tier hit rates (solvecache.Stats.Rates). Tiers appear only
// once touched, keeping exact-only invocations' output compact.
func WriteCacheStats(w io.Writer, s solvecache.Stats) error {
	headers := []string{"HITS", "warm starts", "misses", "joint hits", "joint misses", "entries"}
	rows := [][]string{{
		fmt.Sprint(s.Hits),
		fmt.Sprint(s.WarmStarts),
		fmt.Sprint(s.Misses),
		fmt.Sprint(s.JointHits),
		fmt.Sprint(s.JointMisses),
		fmt.Sprint(s.Entries + s.JointEntries + s.AnalyticEntries + s.RobustEntries + s.PlacementEntries + s.ResultEntries),
	}}
	if s.AnalyticHits+s.AnalyticMisses > 0 {
		headers = append(headers, "analytic hits", "analytic misses")
		rows[0] = append(rows[0], fmt.Sprint(s.AnalyticHits), fmt.Sprint(s.AnalyticMisses))
	}
	if s.RobustHits+s.RobustMisses > 0 {
		headers = append(headers, "robust hits", "robust misses")
		rows[0] = append(rows[0], fmt.Sprint(s.RobustHits), fmt.Sprint(s.RobustMisses))
	}
	if s.PlacementHits+s.PlacementMisses > 0 {
		headers = append(headers, "placement hits", "placement misses")
		rows[0] = append(rows[0], fmt.Sprint(s.PlacementHits), fmt.Sprint(s.PlacementMisses))
	}
	if s.ResultHits+s.ResultMisses > 0 {
		headers = append(headers, "result hits", "result misses")
		rows[0] = append(rows[0], fmt.Sprint(s.ResultHits), fmt.Sprint(s.ResultMisses))
	}
	if s.RemoteHits+s.RemoteMisses > 0 {
		headers = append(headers, "remote hits", "remote misses")
		rows[0] = append(rows[0], fmt.Sprint(s.RemoteHits), fmt.Sprint(s.RemoteMisses))
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	rates := s.Rates()
	if len(rates) == 0 {
		return nil
	}
	// Fixed tier order (the Rates doc's order), filtered to traffic seen.
	var rh, rr []string
	for _, tier := range []string{"exact", "structural", "joint", "analytic", "robust", "placement", "result", "remote"} {
		if v, ok := rates[tier]; ok {
			rh = append(rh, tier)
			rr = append(rr, fmt.Sprintf("%.1f%%", 100*v))
		}
	}
	if _, err := fmt.Fprintln(w, "\nhit rates:"); err != nil {
		return err
	}
	return report.Table(w, rh, [][]string{rr})
}
