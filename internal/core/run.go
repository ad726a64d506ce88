package core

import (
	"context"
	"errors"
	"fmt"

	"socbuf/internal/arch"
	"socbuf/internal/ctmdp"
	"socbuf/internal/graph"
	"socbuf/internal/parallel"
	"socbuf/internal/sim"
	"socbuf/internal/trace"
	"socbuf/internal/uncertain"
)

// Iteration records one pass of the size→solve→resimulate loop.
type Iteration struct {
	Index int
	// Alloc is the allocation produced by this iteration's translation.
	Alloc arch.Allocation
	// SimLoss is the total simulated loss (summed over seeds) under Alloc.
	SimLoss int64
	// LossByProc is the per-processor simulated loss (summed over seeds).
	LossByProc map[string]int64
	// ModelLoss is the LP objective (weighted model loss rate) — or, for
	// iterations produced by a non-exact solver backend, that backend's
	// closed-form loss-rate estimate.
	ModelLoss float64
	// Solution is the joint solution whose translation produced Alloc.
	// Callers can rebuild this iteration's arbitration with Arbiters. Nil for
	// iterations produced by the analytic backend (no CTMDP solve ran).
	Solution *ctmdp.JointSolution
	// CapBinding reports whether the joint occupancy cap bound.
	CapBinding bool
	// RandomisedStates counts states with randomised grants across all
	// subsystem policies (the K of K-switching).
	RandomisedStates int
}

// Result is the outcome of Run.
type Result struct {
	// Arch is the buffered clone the methodology worked on.
	Arch *arch.Architecture
	// Subsystems is the post-insertion split (all linear).
	Subsystems []graph.Subsystem
	// BaselineAlloc is the uniform pre-sizing allocation ("before" bars).
	BaselineAlloc arch.Allocation
	// BaselineLoss is the total simulated loss under BaselineAlloc, and
	// BaselineLossByProc its per-processor split.
	BaselineLoss       int64
	BaselineLossByProc map[string]int64
	// Iterations holds every loop pass, in order.
	Iterations []Iteration
	// Best points at the iteration whose allocation minimised simulated
	// loss (the paper keeps the resized system that won the comparison).
	Best *Iteration
	// FinalSolution is the joint solution of the last iteration (policies,
	// occupancy distributions, switching structure). Nil when the run was
	// produced by a backend that never solved a CTMDP (analytic).
	FinalSolution *ctmdp.JointSolution
	// Robust is the chance-constraint report of a robust-backend run (the
	// empirical yield, Wilson bound and budget the selection used). Nil for
	// every other backend.
	Robust *uncertain.Report
}

// Improvement returns 1 − best/baseline, the fractional loss reduction of
// the chosen allocation over uniform sizing.
func (r *Result) Improvement() float64 {
	if r.BaselineLoss == 0 {
		return 0
	}
	return 1 - float64(r.Best.SimLoss)/float64(r.BaselineLoss)
}

// Run executes the methodology.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: the context is checked
// between methodology iterations and boundary solves, and threaded into the
// per-seed evaluation fan-out, so a cancelled run returns promptly (wrapping
// ctx.Err()) instead of finishing its remaining iterations. Work already in
// flight on worker goroutines completes before RunCtx returns — nothing is
// abandoned.
//
// RunCtx is the exact CTMDP/LP backend: it drives a Stepper for the
// configured number of iterations. Alternative backends (internal/solver's
// analytic and hybrid) drive the same Stepper with their own schedules.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	s, err := NewStepper(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for it := 0; it < s.cfg.Iterations; it++ {
		if _, err := s.Step(ctx); err != nil {
			return nil, err
		}
	}
	return s.Result()
}

// Stepper drives the methodology one iteration at a time: the construction
// runs the shared prologue (buffer insertion, split, linearity check,
// uniform baseline evaluation), and each Step executes one exact
// solve→translate→resimulate pass. RunCtx is NewStepper plus
// Config.Iterations Steps; solver backends that schedule iterations
// differently (early-terminating hybrid refinement, the analytic backend's
// single closed-form pass via Record) reuse the identical machinery, which
// is what keeps the exact path's output byte-identical across entry points.
type Stepper struct {
	cfg Config
	a   *arch.Architecture
	// bnd is the bridge-boundary fixed point, built by the first Step:
	// backends that never Step (analytic, robust) never route for it.
	bnd   *boundary
	alloc arch.Allocation
	res   *Result
}

// NewStepper validates cfg and runs the methodology prologue: clone, bridge
// buffer insertion, split + linearity verification, and the uniform-baseline
// evaluation every backend's Improvement is measured against.
func NewStepper(ctx context.Context, cfg Config) (*Stepper, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := cfg.Arch.Clone()
	a.InsertBridgeBuffers() // the paper's buffer insertion for bridges
	if err := a.Validate(); err != nil {
		return nil, err
	}
	subs, err := graph.Split(a)
	if err != nil {
		return nil, err
	}
	if err := graph.VerifyPartition(a, subs); err != nil {
		return nil, err
	}
	for _, s := range subs {
		if !s.Linear() {
			return nil, fmt.Errorf("core: subsystem %v still nonlinear after buffer insertion", s.Buses)
		}
	}

	res := &Result{Arch: a, Subsystems: subs}

	// Baseline: uniform allocation, longest-queue arbitration. Its one-unit
	// floor per buffer is a bound on the caller's budget.
	res.BaselineAlloc, err = arch.UniformAllocation(a, cfg.Budget)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrInvalidConfig, err)
	}
	res.BaselineLoss, res.BaselineLossByProc, err = evaluate(ctx, a, res.BaselineAlloc, nil, cfg)
	if err != nil {
		return nil, err
	}

	return &Stepper{
		cfg:   cfg,
		a:     a,
		alloc: res.BaselineAlloc.Clone(),
		res:   res,
	}, nil
}

// Config returns the normalised configuration (defaults filled in).
func (s *Stepper) Config() Config { return s.cfg }

// Arch returns the buffered clone the methodology works on.
func (s *Stepper) Arch() *arch.Architecture { return s.a }

// Alloc returns the current allocation: the uniform baseline before the
// first Step, thereafter the latest iteration's sizing.
func (s *Stepper) Alloc() arch.Allocation { return s.alloc }

// Step runs one exact methodology iteration — bridge-boundary fixed point,
// joint CTMDP/LP solve, measure→capacity translation, and the simulated
// re-evaluation — and appends it to the result.
func (s *Stepper) Step(ctx context.Context) (*Iteration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	it := len(s.res.Iterations)
	cfg, a := s.cfg, s.a
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: iteration %d: %w", it, err)
	}
	if s.bnd == nil {
		bnd, err := initialBoundary(a)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d: %w", it, err)
		}
		s.bnd = bnd
	}
	sol, err := solveWithBoundary(ctx, a, s.alloc, s.bnd, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: iteration %d: %w", it, err)
	}

	demands, err := ctmdp.Demands(sol.PerModel)
	if err != nil {
		return nil, fmt.Errorf("core: iteration %d: %w", it, err)
	}
	// Buffers that carry no traffic (e.g. an attachment no flow uses)
	// never appear in any model; they keep the one-unit floor and the
	// rest of the budget goes to the demanded buffers.
	covered := map[string]bool{}
	for _, d := range demands {
		covered[d.BufferID] = true
	}
	var inert []string
	for _, id := range a.BufferIDs() {
		if !covered[id] {
			inert = append(inert, id)
		}
	}
	next, err := ctmdp.Translate(demands, cfg.Budget-len(inert))
	if err != nil {
		return nil, fmt.Errorf("core: iteration %d: %w", it, err)
	}
	for _, id := range inert {
		next[id] = 1
	}
	newAlloc := arch.Allocation(next)
	if err := newAlloc.Validate(a, cfg.Budget); err != nil {
		return nil, fmt.Errorf("core: iteration %d produced bad allocation: %w", it, err)
	}

	makeArbiters := func() (map[string]sim.Arbiter, error) {
		return buildArbiters(s.bnd.clients, sol)
	}
	// Fail fast on wiring errors before fanning out the seeds.
	if _, err := makeArbiters(); err != nil {
		return nil, fmt.Errorf("core: iteration %d: %w", it, err)
	}
	loss, byProc, err := evaluate(ctx, a, newAlloc, makeArbiters, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: iteration %d: %w", it, err)
	}

	randomised := 0
	for _, ms := range sol.PerModel {
		randomised += len(ms.Policy.KSwitching().Randomised)
	}
	s.res.Iterations = append(s.res.Iterations, Iteration{
		Index:            it,
		Alloc:            newAlloc,
		SimLoss:          loss,
		LossByProc:       byProc,
		ModelLoss:        sol.TotalLossRate,
		Solution:         sol,
		CapBinding:       sol.CapBinding,
		RandomisedStates: randomised,
	})
	s.res.FinalSolution = sol
	s.alloc = newAlloc
	return &s.res.Iterations[len(s.res.Iterations)-1], nil
}

// Evaluate simulates alloc on the stepper's buffered architecture under the
// default longest-queue arbitration, summing losses across the configured
// seeds — the evaluation used for the baseline and by backends that size
// without a CTMDP policy (analytic).
func (s *Stepper) Evaluate(ctx context.Context, alloc arch.Allocation) (int64, map[string]int64, error) {
	return evaluate(ctx, s.a, alloc, nil, s.cfg)
}

// Record appends an externally produced iteration (a non-exact backend's
// sizing pass) to the result, stamping its index and advancing the current
// allocation. A non-nil Solution becomes the result's FinalSolution, exactly
// as an exact Step's would.
func (s *Stepper) Record(it Iteration) {
	it.Index = len(s.res.Iterations)
	s.res.Iterations = append(s.res.Iterations, it)
	if it.Solution != nil {
		s.res.FinalSolution = it.Solution
	}
	s.alloc = it.Alloc
}

// Result finalises the run: the iteration with the lowest simulated loss
// wins (ties keep the earliest, matching the paper's "keep the resized
// system that won the comparison"). At least one iteration must have run.
func (s *Stepper) Result() (*Result, error) {
	res := s.res
	if len(res.Iterations) == 0 {
		return nil, errors.New("core: zero iterations requested")
	}
	best := &res.Iterations[0]
	for i := range res.Iterations {
		if res.Iterations[i].SimLoss < best.SimLoss {
			best = &res.Iterations[i]
		}
	}
	res.Best = best
	return res, nil
}

// solveWithBoundary runs the bridge-boundary fixed point: free solves
// refresh the boundary scalars, then a final capped solve over core's cap
// ladder produces the measure used for translation. Every solve goes
// through cfg.Cache (nil for a run without one), so each cap-free bus is
// solved on its canonical clone and the capped program is solved bus by
// bus on the canonical clones under an occupancy price. The context is
// checked between boundary iterations — each individual solve runs to
// completion.
func solveWithBoundary(ctx context.Context, a *arch.Architecture, alloc arch.Allocation, bnd *boundary, cfg Config) (*ctmdp.JointSolution, error) {
	var sol *ctmdp.JointSolution
	var models []*ctmdp.Model
	var err error
	for bi := 0; bi < BoundaryIters; bi++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		models, err = buildModels(a, alloc, bnd, cfg)
		if err != nil {
			return nil, err
		}
		sol, err = cfg.Cache.SolveJoint(models, ctmdp.JointConfig{})
		if err != nil {
			return nil, err
		}
		if err := bnd.update(sol.PerModel, 0.7); err != nil {
			return nil, err
		}
	}
	// Capped final solve over a ladder of caps toward the free occupancy,
	// in order of preference: one price sweep answers at the first
	// feasible rung.
	free := sol.OccupancyUsed
	if free <= 0 {
		return sol, nil // nothing to cap
	}
	caps := []float64{capFactor, (capFactor + 1) / 2, 0.97}
	for i, f := range caps {
		caps[i] = free * f
	}
	capped, err := cfg.Cache.SolveJoint(models, ctmdp.JointConfig{OccupancyCaps: caps})
	if errors.Is(err, ctmdp.ErrInfeasible) {
		return sol, nil // every cap infeasible: the free solution stands
	}
	return capped, err
}

// Arbiters builds fresh per-bus CTMDP arbiters for one simulation of alloc
// under the given joint solution (an Iteration's Solution). Arbiter
// instances carry per-run scratch state, so callers must build a new set
// for every concurrent simulation — exactly what the methodology's own
// evaluations do.
func Arbiters(a *arch.Architecture, sol *ctmdp.JointSolution, alloc arch.Allocation) (map[string]sim.Arbiter, error) {
	clients, err := a.BusClients()
	if err != nil {
		return nil, err
	}
	return buildArbiters(clients, sol)
}

// buildArbiters wires each bus's solved policy to the simulator, given each
// bus's client buffers (arch.BusClients).
func buildArbiters(clients map[string][]string, sol *ctmdp.JointSolution) (map[string]sim.Arbiter, error) {
	out := map[string]sim.Arbiter{}
	for _, ms := range sol.PerModel {
		pa, err := newPolicyArbiter(ms, clients[ms.Model.Bus])
		if err != nil {
			return nil, err
		}
		out[ms.Model.Bus] = pa
	}
	return out, nil
}

// evaluate sums simulated losses across the configured seeds. Seeds run
// concurrently on cfg.Workers goroutines; each seed's simulation is fully
// determined by its seed, and the merge below walks the per-seed results in
// seed order, so the totals are identical for any worker count.
//
// makeArbiters (nil for the longest-queue default) is invoked once per seed:
// a policyArbiter carries per-run scratch state (its level buffer), so
// concurrent simulations must not share instances. cfg.Traffic, when set,
// is likewise invoked once per seed so every simulation gets fresh Source
// instances (trace.OnOff is stateful).
func evaluate(ctx context.Context, a *arch.Architecture, alloc arch.Allocation, makeArbiters func() (map[string]sim.Arbiter, error), cfg Config) (int64, map[string]int64, error) {
	perSeed, err := parallel.MapCtx(ctx, len(cfg.Seeds), cfg.Workers, func(i int) (*sim.Results, error) {
		var arbiters map[string]sim.Arbiter
		if makeArbiters != nil {
			var err error
			arbiters, err = makeArbiters()
			if err != nil {
				return nil, err
			}
		}
		var sources map[sim.FlowKey]trace.Source
		if cfg.Traffic != nil {
			var err error
			sources, err = cfg.Traffic(a)
			if err != nil {
				return nil, err
			}
		}
		s, err := sim.New(sim.Config{
			Arch:     a,
			Alloc:    alloc,
			Horizon:  cfg.Horizon,
			WarmUp:   cfg.WarmUp,
			Seed:     cfg.Seeds[i],
			Arbiters: arbiters,
			Sources:  sources,
		})
		if err != nil {
			return nil, err
		}
		return s.Run()
	})
	if err != nil {
		return 0, nil, err
	}
	byProc := map[string]int64{}
	var total int64
	for _, r := range perSeed {
		for p, v := range r.Lost {
			byProc[p] += v
		}
		total += r.TotalLost()
	}
	return total, byProc, nil
}
