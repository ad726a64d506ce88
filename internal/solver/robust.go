package solver

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/parallel"
	"socbuf/internal/queueing"
	"socbuf/internal/solvecache"
	"socbuf/internal/uncertain"
)

// candidateSeedSizings bounds how many per-sample sizings seed the
// candidate pool at each budget rung (the first indices of the CRN sample
// set — a pure function of the spec seed, so worker-count invariant).
const candidateSeedSizings = 6

// budgetLadder is the descending fraction ladder the selection walks:
// chance-constrained selection prefers the cheapest rung that clears the
// confidence.
var budgetLadder = []float64{0.6, 0.7, 0.8, 0.9, 1.0}

// runRobust sizes buffers under traffic uncertainty with a chance constraint:
// instead of optimising against the nominal point-estimate rates, it draws
// N correlated traffic perturbations (internal/uncertain, common random
// numbers), scores candidate sizings by their empirical yield — the
// fraction of samples whose analytic weighted loss rate meets the target —
// and selects the CHEAPEST sizing whose Wilson-guarded yield clears the
// requested confidence. The per-sample evaluations reuse the analytic
// backend's closed-form machinery (same package): one converged boundary
// screen per sample, shared structurally across every candidate, so the
// (sample × candidate) matrix costs N boundary fixed points plus pure
// float evaluations — thousands of samples stay interactive.
//
// Candidates come from two sources at each rung of a descending budget
// ladder: the nominal-rate analytic sizing (so robust in-sample yield can
// never fall below the nominal design's) and the per-sample sizings of a
// deterministic prefix of the sample set (designs hedged toward the
// perturbations actually drawn). When no candidate clears the constraint,
// the best-yield full-ladder candidate stands, with Report.Met = false.
//
// The result carries exactly one iteration, like the analytic backend's:
// simulation-evaluated under longest-queue arbitration, Solution nil,
// ModelLoss the nominal-screen analytic estimate, and Result.Robust
// holding the chance-constraint report. Whole decisions are cached under
// solvecache's backend-tagged robust tier. DESIGN.md §9 records the
// contract.
func runRobust(ctx context.Context, cfg core.Config) (*core.Result, error) {
	s, err := core.NewStepper(ctx, cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.Config()

	sol, err := robustSize(ctx, s.Arch(), cfg)
	if err != nil {
		return nil, err
	}

	alloc := arch.Allocation(sol.Alloc)
	if err := alloc.Validate(s.Arch(), cfg.Budget); err != nil {
		return nil, fmt.Errorf("solver: robust sizing produced bad allocation: %w", err)
	}
	loss, byProc, err := s.Evaluate(ctx, alloc)
	if err != nil {
		return nil, err
	}
	s.Record(core.Iteration{
		Alloc:      alloc,
		SimLoss:    loss,
		LossByProc: byProc,
		ModelLoss:  sol.LossRate,
	})
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	rep := sol.Report
	res.Robust = &rep
	return res, nil
}

// robustSize computes the chance-constrained sizing through cfg.Cache's
// robust tier (backend-tagged keys — a robust decision can never rebind as
// an exact solution or a placement).
func robustSize(ctx context.Context, a *arch.Architecture, cfg core.Config) (*solvecache.RobustSolution, error) {
	spec := specOf(cfg)
	key, err := robustKey(a, cfg, spec)
	if err != nil {
		return nil, err
	}
	if sol, ok := cfg.Cache.LookupRobust(key, a, cfg.Budget); ok {
		return sol, nil
	}
	sol, err := robustSolve(ctx, a, cfg, spec)
	if err != nil {
		return nil, err
	}
	cfg.Cache.PutRobust(key, sol)
	return sol, nil
}

// specOf resolves the run's uncertainty spec: the config's, or all
// defaults — the robust backend must work spec-less (registry-driven tests
// and sweeps run every method).
func specOf(cfg core.Config) uncertain.Spec {
	spec := uncertain.Spec{}
	if cfg.Uncertainty != nil {
		spec = *cfg.Uncertainty
	}
	return spec.WithDefaults()
}

// robustKey fingerprints the robust decision: the buffered architecture's
// canonical JSON with the loss weights appended, plus the resolved spec's
// canonical JSON (solvecache.RobustFingerprint adds the backend tag, budget
// and fixed-point depth). The key costs a small fraction of the sizing a
// hit skips (PERFORMANCE.md, "What a cache hit saves").
func robustKey(a *arch.Architecture, cfg core.Config, spec uncertain.Spec) (solvecache.Key, error) {
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		return solvecache.Key{}, err
	}
	procs := make([]string, 0, len(cfg.LossWeights))
	for p := range cfg.LossWeights {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	for _, p := range procs {
		fmt.Fprintf(&buf, "w:%s=%x;", p, math.Float64bits(cfg.LossWeights[p]))
	}
	var specBuf bytes.Buffer
	if err := spec.WriteJSON(&specBuf); err != nil {
		return solvecache.Key{}, err
	}
	return solvecache.RobustFingerprint(buf.Bytes(), specBuf.Bytes(), cfg.Budget, core.BoundaryIters), nil
}

// sampleScreen is one converged analytic view of a (possibly perturbed)
// architecture: the closed-form structure every candidate is scored
// against. Building it costs the boundary fixed point once, plus a
// precomputed per-buffer blocking table B[i][k] for every capacity the
// budget allows and the full-budget greedy trajectory; after that, sizing
// any ladder rung is a prefix read of the trajectory and pricing any
// candidate is one multiply-add per buffer against the table — this is the
// structural reuse that makes the (sample × candidate) matrix cheap, and
// it is read-only, so candidate scoring fans across workers freely.
type sampleScreen struct {
	m       *analyticModel
	arrival []float64
	mu      []float64
	wl      []float64 // weight[i]·arrival[i], the loss-sum coefficients
	tab     []float64 // blocking tables: B(buffer i, capacity k) at tab[i*stride+k]
	stride  int       // table row width: max per-buffer capacity + 1
	traj    []int     // full-budget greedy pick sequence beyond the 1-unit floor
}

func newSampleScreen(a *arch.Architecture, cfg core.Config) (*sampleScreen, error) {
	m, err := newAnalyticModel(a, cfg)
	if err != nil {
		return nil, err
	}
	return screenOf(m, cfg), nil
}

// screenOf converges the model's boundary and precomputes the screen's
// scoring tables and sizing trajectory.
func screenOf(m *analyticModel, cfg core.Config) *sampleScreen {
	n := len(m.buffers)
	sc := &sampleScreen{m: m, arrival: m.converge(cfg)}
	sc.mu = make([]float64, n)
	m.serviceShare(sc.arrival, sc.mu, make([]float64, len(m.muBus)))
	sc.wl = make([]float64, n)
	for i := 0; i < n; i++ {
		sc.wl[i] = m.weight[i] * sc.arrival[i]
	}
	// Every buffer keeps the 1-unit floor, so no buffer can ever hold more
	// than budget − n + 1 units; one table row covers k = 0..stride−1.
	sc.stride = cfg.Budget - n + 2
	if sc.stride < 2 {
		sc.stride = 2
	}
	sc.tab = make([]float64, n*sc.stride)
	for i := 0; i < n; i++ {
		row := sc.tab[i*sc.stride : (i+1)*sc.stride]
		switch {
		case sc.arrival[i] <= 0:
			// zeros: a traffic-free buffer never blocks
		case sc.mu[i] <= 0:
			for k := range row {
				row[k] = 1
			}
		default:
			rho := sc.arrival[i] / sc.mu[i]
			row[0] = 1
			for k := 1; k < sc.stride; k++ {
				row[k] = queueing.BlockingStep(rho, row[k-1])
			}
		}
	}
	_, sc.traj = m.greedy(sc.arrival, sc.mu, cfg.Budget, make([]int, 0, cfg.Budget-n))
	return sc
}

// size returns the marginal-greedy sizing at the given budget as a prefix
// snapshot of the full-budget trajectory: the floor plus the first
// budget − n picks (exact, because the greedy's gain sequence does not
// depend on the budget).
func (sc *sampleScreen) size(budget int) []int {
	n := len(sc.m.buffers)
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	extra := budget - n
	if extra > len(sc.traj) {
		extra = len(sc.traj)
	}
	for _, i := range sc.traj[:max(0, extra)] {
		alloc[i]++
	}
	return alloc
}

// loss prices a dense allocation under this screen: the analytic weighted
// loss rate, one table lookup and multiply-add per buffer, summed in dense
// (sorted-buffer) order — the same deterministic float order as pricing
// each buffer directly, so yields stay worker-count invariant
// (TestScreenLossZeroAlloc pins that this path never allocates).
func (sc *sampleScreen) loss(alloc []int) float64 {
	var loss float64
	for i, k := range alloc {
		loss += float64(sc.wl[i] * sc.tab[i*sc.stride+k])
	}
	return loss
}

// lossMap prices a map-form allocation (the package-boundary form) by
// direct blocking evaluation — capacities outside the table's budget range
// are legal here.
func (sc *sampleScreen) lossMap(alloc map[string]int) float64 {
	var loss float64
	for i, id := range sc.m.buffers {
		loss += float64(sc.wl[i] * blocking(sc.arrival[i], sc.mu[i], alloc[id]))
	}
	return loss
}

// AnalyticLoss prices an allocation on an architecture (bridge buffers
// already inserted) with the analytic screen: the converged boundary's
// weighted M/M/1/K loss rate — exactly the quantity the robust backend's
// yield counts compare against the loss target. Exported so out-of-sample
// yield audits (tests, tools) can score a sizing on fresh perturbations
// without re-running a backend. cfg needs Budget, and optionally
// LossWeights.
func AnalyticLoss(a *arch.Architecture, cfg core.Config, alloc map[string]int) (float64, error) {
	sc, err := newSampleScreen(a, cfg)
	if err != nil {
		return 0, err
	}
	return sc.lossMap(alloc), nil
}

// robustCandidate is one scored sizing (dense allocation form).
type robustCandidate struct {
	alloc []int
	total int
	key   string
	// successes counts samples whose loss met the target; yield and
	// yieldLow derive from it.
	successes int
	yield     float64
	yieldLow  float64
}

// robustSolve runs the full decision: nominal screen, N per-sample screens
// through the parallel pool (CRN: sample i is a pure function of the spec
// seed, so results are worker-count invariant), candidate generation over
// the budget ladder, yield scoring of every (sample × candidate) pair, and
// the Wilson-guarded cheapest-first selection.
func robustSolve(ctx context.Context, a *arch.Architecture, cfg core.Config, spec uncertain.Spec) (*solvecache.RobustSolution, error) {
	sampler := uncertain.NewSampler(spec, len(a.Flows))
	base, err := newAnalyticModel(a, cfg)
	if err != nil {
		return nil, err
	}
	nominal := screenOf(base, cfg)

	// Per-sample screens fan across the worker pool; aggregation is by
	// sample index, so the screen set is identical for any worker count.
	// Each sample shares the nominal model's static structure (topology,
	// routing, bus rates) — a perturbation only rescales the flow rates, so
	// no architecture clone or re-route happens per sample.
	screens, err := parallel.MapCtx(ctx, sampler.N(), cfg.Workers, func(i int) (*sampleScreen, error) {
		s := sampler.At(i)
		return screenOf(base.withSample(s.Rate, s.Burst), cfg), nil
	})
	if err != nil {
		return nil, err
	}

	// Loss target: explicit, or a multiple of the nominal full-budget
	// design's own analytic loss (floored away from zero so underloaded
	// scenarios keep a meaningful constraint).
	nominalAlloc := nominal.size(cfg.Budget)
	target := spec.LossTarget
	if target == 0 {
		target = spec.TargetFactor * nominal.loss(nominalAlloc)
		if target < 1e-9 {
			target = 1e-9
		}
	}

	// Candidate pool: walk the budget ladder from cheap to full; at each
	// rung take the nominal-rate sizing plus the sizings the first few
	// samples would choose, deduplicated on the canonical allocation key.
	// Generation is deterministic: ladder order, then nominal-first, then
	// sample index. Each rung sizing is a prefix snapshot of its screen's
	// full-budget trajectory, and candIdx (key → candidate index, built
	// alongside the dedup set) answers "which candidate is this rung's
	// nominal sizing" without scanning the pool.
	floor := len(base.buffers)
	budgets := make([]int, 0, len(budgetLadder))
	seenBudget := map[int]bool{}
	for _, f := range budgetLadder {
		b := int(float64(cfg.Budget) * f)
		if b < floor {
			b = floor
		}
		if b > cfg.Budget {
			b = cfg.Budget
		}
		if !seenBudget[b] {
			seenBudget[b] = true
			budgets = append(budgets, b)
		}
	}
	seeds := candidateSeedSizings
	if n := sampler.N(); seeds > n {
		seeds = n
	}
	var cands []*robustCandidate
	candIdx := map[string]int{}
	addCandidate := func(alloc []int) int {
		key := base.allocKeyDense(alloc)
		if i, ok := candIdx[key]; ok {
			return i
		}
		candIdx[key] = len(cands)
		total := 0
		for _, u := range alloc {
			total += u
		}
		cands = append(cands, &robustCandidate{alloc: alloc, total: total, key: key})
		return len(cands) - 1
	}
	nominalIdx := make(map[int]int, len(budgets)) // budget rung -> nominal candidate index
	for _, b := range budgets {
		nominalIdx[b] = addCandidate(nominal.size(b))
		for i := 0; i < seeds; i++ {
			addCandidate(screens[i].size(b))
		}
	}

	// Score every candidate over all N samples — the same samples for every
	// candidate (common random numbers), through the pool, merged in
	// candidate order.
	successes, err := parallel.MapCtx(ctx, len(cands), cfg.Workers, func(ci int) (int, error) {
		n := 0
		for _, sc := range screens {
			if sc.loss(cands[ci].alloc) <= target {
				n++
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cands {
		c.successes = successes[i]
		c.yield = float64(c.successes) / float64(sampler.N())
		c.yieldLow = uncertain.WilsonLower(c.successes, sampler.N(), spec.Confidence)
	}

	// Selection: cheapest sizing whose guarded yield clears the confidence;
	// ties (same total) break toward the higher guarded yield, then the
	// lexicographically smaller allocation key — fully deterministic.
	ordered := make([]*robustCandidate, len(cands))
	copy(ordered, cands)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.total != b.total {
			return a.total < b.total
		}
		if a.yieldLow != b.yieldLow {
			return a.yieldLow > b.yieldLow
		}
		return a.key < b.key
	})
	var chosen *robustCandidate
	met := false
	for _, c := range ordered {
		if c.yieldLow >= spec.Confidence {
			chosen, met = c, true
			break
		}
	}
	if chosen == nil {
		// No candidate clears the constraint: best guarded yield wins (then
		// raw yield, then cheapest, then key).
		chosen = ordered[0]
		for _, c := range ordered[1:] {
			switch {
			case c.yieldLow > chosen.yieldLow:
				chosen = c
			case c.yieldLow == chosen.yieldLow && c.yield > chosen.yield:
				chosen = c
			}
		}
	}

	nomFull := nominalIdx[budgets[len(budgets)-1]]
	report := uncertain.Report{
		Samples:      sampler.N(),
		Confidence:   spec.Confidence,
		LossTarget:   target,
		Yield:        chosen.yield,
		YieldLow:     chosen.yieldLow,
		NominalYield: cands[nomFull].yield,
		BudgetUsed:   chosen.total,
		Met:          met,
		Candidates:   len(cands),
	}
	return &solvecache.RobustSolution{
		Alloc:    base.allocMap(chosen.alloc),
		LossRate: nominal.loss(chosen.alloc),
		Report:   report,
	}, nil
}
