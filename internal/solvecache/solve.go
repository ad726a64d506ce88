package solvecache

import (
	"fmt"

	"socbuf/internal/ctmdp"
)

// SolveJoint is the cache-aware drop-in for ctmdp.SolveJoint, and the one
// solve path of every methodology run. A nil receiver (a run without a
// cache) takes the path of a miss on every model, without a key, a store or
// a counter, so a run gets the same answer with or without a cache.
//
// Cap-free programs decouple into independent sub-model solves, which is
// where the reuse across a sweep's points lives: each model is answered from
// the cache (a hit) or by a cold solve of its canonicalised clone that then
// populates the cache. Capped programs are solved fresh on the canonical
// clones, bus by bus (ctmdp.SolveJoint), and are not cached: each cap
// derives from its own run's occupancy, so a capped program seldom repeats.
//
// Solutions returned to the caller are always freshly allocated and bound to
// the requesting models (callers read Model.Bus downstream), never aliases
// of cache memory.
func (c *Cache) SolveJoint(models []*ctmdp.Model, cfg ctmdp.JointConfig) (*ctmdp.JointSolution, error) {
	if len(models) == 0 {
		// Delegate so the canonical error surfaces unchanged.
		return ctmdp.SolveJoint(models, cfg)
	}
	if len(cfg.OccupancyCaps) > 0 {
		return c.solveCapped(models, cfg)
	}

	out := &ctmdp.JointSolution{}
	for _, m := range models {
		ms, iters, err := c.solveOne(m)
		if err != nil {
			return nil, fmt.Errorf("solvecache: model %q: %w", m.Bus, err)
		}
		out.PerModel = append(out.PerModel, ms)
		out.TotalLossRate += ms.LossRate
		out.Iters += iters
		for s, p := range ms.StateProb {
			out.OccupancyUsed += m.OccupancyUnits(s) * p
		}
	}
	return out, nil
}

// solveOne answers one decoupled sub-model solve, returning the rebound
// solution. The returned iteration count is the policy evaluations actually
// performed (zero for hits).
func (c *Cache) solveOne(m *ctmdp.Model) (*ctmdp.ModelSolution, int, error) {
	order := canonicalOrder(m)
	var k Key
	if c != nil {
		k = Fingerprint(m)
		if e, ok := c.exact.get(k); ok && e.matches(m, order) {
			c.exact.hits.Add(1)
			ms, err := e.rebind(m, order)
			return ms, 0, err
		}
		c.exact.misses.Add(1)
	}
	e, err := solveCold(m, order)
	if err != nil {
		return nil, 0, err
	}
	if c != nil {
		c.exact.add(k, e)
	}
	ms, err := e.rebind(m, order)
	return ms, e.iters, err
}

// solveCold solves the canonicalised clone of m and wraps it as a cache
// entry. Solving the canonical clone — not m itself — is what makes the
// stored payload a pure function of the fingerprint: every requester of this
// key gets bit-identical numbers regardless of which worker solved first.
func solveCold(m *ctmdp.Model, order []int) (*entry, error) {
	cm, err := canonicalModel(m, order)
	if err != nil {
		return nil, err
	}
	sol, err := ctmdp.SolveJoint([]*ctmdp.Model{cm}, ctmdp.JointConfig{})
	if err != nil {
		return nil, err
	}
	return &entry{model: cm, sol: sol.PerModel[0], iters: sol.Iters}, nil
}

// solveCapped handles the occupancy-cap linked program: it solves the
// canonical clones of the models, so the answer depends only on their
// content, and rebinds the solutions onto the requesting models.
func (c *Cache) solveCapped(models []*ctmdp.Model, cfg ctmdp.JointConfig) (*ctmdp.JointSolution, error) {
	if c != nil {
		c.capped.Add(1)
	}
	orders := make([][]int, len(models))
	cms := make([]*ctmdp.Model, len(models))
	for i, m := range models {
		orders[i] = canonicalOrder(m)
		cm, err := canonicalModel(m, orders[i])
		if err != nil {
			return nil, fmt.Errorf("solvecache: model %q: %w", m.Bus, err)
		}
		cms[i] = cm
	}
	sol, err := ctmdp.SolveJoint(cms, cfg)
	if err != nil {
		// Includes ctmdp.ErrInfeasible untouched in the chain: the caller
		// matches it with errors.Is when no cap of its ladder is feasible.
		return nil, err
	}
	for i, m := range models {
		e := &entry{model: cms[i], sol: sol.PerModel[i]}
		ms, err := e.rebind(m, orders[i])
		if err != nil {
			return nil, fmt.Errorf("solvecache: model %q: %w", m.Bus, err)
		}
		sol.PerModel[i] = ms
	}
	return sol, nil
}
