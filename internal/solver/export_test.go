package solver

// Test-only exports. The kernel gates (invariance_test.go) pin internals —
// trajectory-prefix sizing, table-scored losses, worker-invariant robust
// decisions — but must live in the external solver_test package because
// building registry scenarios imports internal/scenario, which imports this
// package. These bridges expose exactly what those gates exercise.

import (
	"context"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/solvecache"
	"socbuf/internal/uncertain"
)

// Screen wraps a converged sampleScreen, opaque outside the package.
type Screen struct{ sc *sampleScreen }

// NewScreen builds the nominal screen of a buffered architecture.
func NewScreen(a *arch.Architecture, cfg core.Config) (*Screen, error) {
	sc, err := newSampleScreen(a, cfg)
	if err != nil {
		return nil, err
	}
	return &Screen{sc}, nil
}

// PerturbedScreens builds the robust backend's CRN per-sample screens
// serially (sample i is a pure function of the spec seed, so the serial
// build matches the pooled one).
func PerturbedScreens(a *arch.Architecture, cfg core.Config) ([]*Screen, error) {
	spec := specOf(cfg)
	sampler := uncertain.NewSampler(spec, len(a.Flows))
	base, err := newAnalyticModel(a, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*Screen, sampler.N())
	for i := range out {
		s := sampler.At(i)
		out[i] = &Screen{screenOf(base.withSample(s.Rate, s.Burst), cfg)}
	}
	return out, nil
}

// Floor is the scenario's buffer count — the 1-unit-per-buffer budget floor.
func (s *Screen) Floor() int { return len(s.sc.m.buffers) }

// SizeAt is the trajectory-prefix sizing the robust ladder reads.
func (s *Screen) SizeAt(budget int) []int { return s.sc.size(budget) }

// GreedyAt re-runs the marginal greedy independently at one budget — the
// per-rung evaluation SizeAt's prefix snapshot replaced.
func (s *Screen) GreedyAt(budget int) []int {
	alloc, _ := s.sc.m.greedy(s.sc.arrival, s.sc.mu, budget, nil)
	return alloc
}

// TableLoss prices an allocation against the precomputed blocking table.
func (s *Screen) TableLoss(alloc []int) float64 { return s.sc.loss(alloc) }

// DirectLoss prices the same allocation by walking the blocking recurrence
// per buffer — the per-call evaluation the table replaced, in the same
// dense summation order.
func (s *Screen) DirectLoss(alloc []int) float64 {
	var loss float64
	for i, k := range alloc {
		loss += s.sc.wl[i] * blocking(s.sc.arrival[i], s.sc.mu[i], k)
	}
	return loss
}

// BudgetLadder is the robust backend's rung fraction ladder.
func BudgetLadder() []float64 { return budgetLadder }

// RobustSolveDirect runs the full robust decision without the simulation
// evaluation or cache wrapping around it.
func RobustSolveDirect(ctx context.Context, a *arch.Architecture, cfg core.Config) (*solvecache.RobustSolution, error) {
	return robustSolve(ctx, a, cfg, specOf(cfg))
}

// AnalyticSolveDirect runs the analytic sizing without cache wrapping.
func AnalyticSolveDirect(a *arch.Architecture, cfg core.Config) (*AnalyticSolution, error) {
	return analyticSolve(a, cfg)
}
