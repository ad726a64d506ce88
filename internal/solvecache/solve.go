package solvecache

import (
	"fmt"

	"socbuf/internal/ctmdp"
	"socbuf/internal/lp"
)

// SolveJoint is the cache-aware drop-in for ctmdp.SolveJoint. A nil receiver
// delegates straight to the cold solver, so call sites can thread an
// optional cache without branching.
//
// Cap-free (and Sequential) programs decouple into independent sub-model
// solves, which is where the fleet-wide reuse lives: each model is answered
// from the cache (exact hit), from a structural sibling (warm start — only
// capacities changed), or by a cold solve of its canonicalised clone that
// then populates the cache. Capped joint programs are cached at
// whole-program granularity under JointFingerprint; their stationary
// refinement is warm-seeded from the cached free solutions when available.
//
// Solutions returned to the caller are always freshly allocated and bound to
// the requesting models (callers mutate solutions — RefineStationary — and
// read Model.Bus downstream), never aliases of cache memory. Single-model
// cap-free solves return a Basis rebound onto the requesting model — the
// currency of JointConfig.WarmBasis, exactly as a direct single-model
// ctmdp.SolveJoint would hand back; multi-model and capped solves return a
// nil Basis (a concatenated basis has no JointConfig consumer, and the
// free→capped hand-over the methodology needs happens inside the cache).
// A caller-supplied cfg.WarmBasis seed is superseded by the cache's own
// seeding and ignored — a cached answer beats any warm start.
func (c *Cache) SolveJoint(models []*ctmdp.Model, cfg ctmdp.JointConfig) (*ctmdp.JointSolution, error) {
	if c == nil {
		return ctmdp.SolveJoint(models, cfg)
	}
	if len(models) == 0 || (cfg.Sequential && cfg.OccupancyCap > 0) {
		// Delegate so the canonical configuration errors surface unchanged.
		return ctmdp.SolveJoint(models, cfg)
	}
	opts := optionsOf(cfg)
	if cfg.OccupancyCap > 0 {
		return c.solveCapped(models, cfg, opts)
	}

	// Basis hand-back is a single-model affair (JointConfig.WarmBasis wants
	// per-model bases, so a concatenated multi-model basis has no consumer);
	// skipping it for multi-model calls keeps the sweep hot path — where the
	// free solves arrive as multi-model batches — free of the extra
	// rebinding pass.
	wantBasis := len(models) == 1

	out := &ctmdp.JointSolution{}
	for _, m := range models {
		ms, rb, iters, err := c.solveOne(m, opts, wantBasis)
		if err != nil {
			return nil, fmt.Errorf("solvecache: model %q: %w", m.Bus, err)
		}
		out.PerModel = append(out.PerModel, ms)
		out.TotalLossRate += ms.LossRate
		out.Iters += iters
		for s, p := range ms.StateProb {
			out.OccupancyUsed += m.OccupancyUnits(s) * p
		}
		out.Basis = rb
	}
	return out, nil
}

// solveOne answers one decoupled sub-model solve, returning the rebound
// solution and — when wantBasis is set — the entry's basis rebound onto the
// requesting model. The returned iteration count is the simplex pivots
// actually performed (zero for hits and warm starts).
func (c *Cache) solveOne(m *ctmdp.Model, opts SolveOptions, wantBasis bool) (*ctmdp.ModelSolution, []lp.BasicRef, int, error) {
	order := canonicalOrder(m)
	full := Fingerprint(m, opts)
	structural := StructuralFingerprint(m, opts)
	e, exact := c.lookup(full, structural)
	iters := 0
	if e != nil && e.matches(m, order) {
		if exact {
			c.exact.hits.Add(1)
		} else {
			c.structural.hits.Add(1) // a warm start
			// Promote the sibling under the new full key: future solves of
			// this exact model are plain hits.
			c.exact.add(full, e)
		}
	} else if re, ok := c.exact.fetch(full); ok && re.matches(m, order) {
		// A peer solved this exact fingerprint already: adopt its payload as a
		// plain hit and keep a local copy. The payload is a pure function of
		// the key (solveCold solves the canonical clone), so the adopted
		// numbers are bit-identical to what a local cold solve would produce.
		c.exact.hits.Add(1)
		c.put(full, structural, re)
		e = re
	} else {
		c.exact.misses.Add(1)
		var err error
		if e, err = c.solveCold(m, order, opts); err != nil {
			return nil, nil, 0, err
		}
		c.put(full, structural, e)
		iters = e.iters
		c.exact.writeBehind(full, e)
	}
	ms, err := e.rebind(m, order)
	if err != nil {
		return nil, nil, 0, err
	}
	var rb []lp.BasicRef
	if wantBasis {
		if rb, err = e.rebindBasis(m, order); err != nil {
			return nil, nil, 0, err
		}
	}
	return ms, rb, iters, nil
}

// solveCold solves the canonicalised clone of m and wraps it as a cache
// entry. Solving the canonical clone — not m itself — is what makes the
// stored payload a pure function of the fingerprint: every requester of this
// key gets bit-identical numbers regardless of which worker solved first.
func (c *Cache) solveCold(m *ctmdp.Model, order []int, opts SolveOptions) (*entry, error) {
	cm, err := canonicalModel(m, order)
	if err != nil {
		return nil, err
	}
	sol, err := ctmdp.SolveJoint([]*ctmdp.Model{cm}, ctmdp.JointConfig{RefineStationary: opts.Refine})
	if err != nil {
		return nil, err
	}
	return &entry{model: cm, sol: sol.PerModel[0], iters: sol.Iters, basis: sol.Basis}, nil
}

// solveCapped handles the occupancy-cap linked program. The cap couples the
// blocks, so caching happens at whole-program granularity; per-model entries
// of a capped solve never leak into the decoupled maps (a capped optimum is
// a different payload than the free one).
func (c *Cache) solveCapped(models []*ctmdp.Model, cfg ctmdp.JointConfig, opts SolveOptions) (*ctmdp.JointSolution, error) {
	key := JointFingerprint(models, cfg.OccupancyCap, opts)
	orders := make([][]int, len(models))
	for i, m := range models {
		orders[i] = canonicalOrder(m)
	}

	if je, ok := c.joint.get(key); ok && je.matches(models, orders) {
		c.joint.hits.Add(1)
		return je.assemble(models, orders)
	}

	c.joint.misses.Add(1)
	cms := make([]*ctmdp.Model, len(models))
	for i, m := range models {
		cm, err := canonicalModel(m, orders[i])
		if err != nil {
			return nil, fmt.Errorf("solvecache: model %q: %w", m.Bus, err)
		}
		cms[i] = cm
	}
	// Solve the canonical joint program with refinement deferred, so the
	// refinement can be warm-seeded from the cached free solutions below.
	// The LP itself is seeded from the cached cap-free optima: the balance
	// blocks are unchanged by the cap, so handing over the free solves'
	// final bases (ctmdp.JointConfig.WarmBasis) skips simplex phase 1 with
	// the reduced costs already optimal, leaving only the new cap row to
	// repair by dual pivots. In the methodology loop the free solves always
	// precede the capped one, so the seed is deterministically available
	// there.
	inner := cfg
	inner.RefineStationary = false
	warmBasis := make([][]lp.BasicRef, len(models))
	seeded := 0
	for i, m := range models {
		if e := c.freeEntry(m, opts); e != nil && e.basis != nil {
			warmBasis[i] = e.basis
			seeded++
		}
	}
	if seeded == len(models) {
		inner.WarmBasis = warmBasis
	}
	sol, err := ctmdp.SolveJoint(cms, inner)
	if err != nil {
		// Includes ctmdp.ErrInfeasible untouched in the chain: the caller's
		// cap retry ladder matches with errors.Is.
		return nil, err
	}
	if opts.Refine {
		sol.TotalLossRate, sol.OccupancyUsed = 0, 0
		for i, ms := range sol.PerModel {
			var warm []float64
			if e := c.freeEntry(models[i], opts); e != nil {
				warm = e.sol.StateProb
			}
			if _, err := ms.RefineStationary(warm); err != nil {
				return nil, fmt.Errorf("solvecache: model %q: %w", models[i].Bus, err)
			}
			sol.TotalLossRate += ms.LossRate
			for s, p := range ms.StateProb {
				sol.OccupancyUsed += ms.Model.OccupancyUnits(s) * p
			}
		}
		sol.CapBinding = sol.OccupancyUsed >= cfg.OccupancyCap*(1-1e-6)
	}

	je := &jointEntry{
		totalLoss:  sol.TotalLossRate,
		occUsed:    sol.OccupancyUsed,
		capBinding: sol.CapBinding,
	}
	for i := range cms {
		je.entries = append(je.entries, &entry{model: cms[i], sol: sol.PerModel[i]})
	}
	c.joint.add(key, je)
	out, err := je.assemble(models, orders)
	if err != nil {
		return nil, err
	}
	out.Iters = sol.Iters
	return out, nil
}

// matches sanity-checks a cached joint entry block by block against the
// requesting models (see entry.matches).
func (je *jointEntry) matches(models []*ctmdp.Model, orders [][]int) bool {
	if len(je.entries) != len(models) {
		return false
	}
	for i, m := range models {
		if !je.entries[i].matches(m, orders[i]) {
			return false
		}
	}
	return true
}

// assemble rebinds a cached joint entry onto the requesting models.
func (je *jointEntry) assemble(models []*ctmdp.Model, orders [][]int) (*ctmdp.JointSolution, error) {
	out := &ctmdp.JointSolution{
		TotalLossRate: je.totalLoss,
		OccupancyUsed: je.occUsed,
		CapBinding:    je.capBinding,
	}
	for i, m := range models {
		ms, err := je.entries[i].rebind(m, orders[i])
		if err != nil {
			return nil, fmt.Errorf("solvecache: model %q: %w", m.Bus, err)
		}
		out.PerModel = append(out.PerModel, ms)
	}
	return out, nil
}

// freeEntry returns the cached cap-free solution of m (exact or structural
// sibling — the cap-free payload is capacity-invariant), if present: the
// warm-start seed for a capped solve's LP and stationary refinement. In the
// methodology loop the free boundary solves always run (and cache) before
// the capped final solve, so the seed is deterministic there; standalone
// capped solves on a cold cache simply solve unseeded. The entry's slices
// are read-only here: the LP copies its WarmBasis and the stationary solvers
// copy their Init prior.
func (c *Cache) freeEntry(m *ctmdp.Model, opts SolveOptions) *entry {
	e, _ := c.lookup(Fingerprint(m, opts), StructuralFingerprint(m, opts))
	return e
}
