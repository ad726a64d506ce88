package engine

import (
	"context"
	"encoding/json"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/policy"
	"socbuf/internal/report"
	"socbuf/internal/sim"
	"socbuf/internal/solver"
)

// SimulateRequest asks for one standalone discrete-event simulation under a
// baseline sizing policy (the socsim workload): no CTMDP solve, optionally
// with timeout drops. Arch/ArchJSON follow the SolveRequest rules. A zero
// Horizon inherits the simulator default (2000); WarmUp and Seed pass
// through as given — 0 is a meaningful value for both (no warm-up window,
// seed zero), so the engine never rewrites them.
type SimulateRequest struct {
	Arch     string          `json:"arch,omitempty"`
	ArchJSON json.RawMessage `json:"archJSON,omitempty"`
	Budget   int             `json:"budget"`
	// Policy is the sizing baseline: "constant" (default), "proportional",
	// or "sized" — the last runs the full methodology under Method first
	// and simulates its chosen allocation.
	Policy string `json:"policy,omitempty"`
	// Method selects the solver backend for the "sized" policy ("exact" |
	// "analytic" | "hybrid"; empty = exact). It is validated on every
	// request — an unknown method fails uniformly (HTTP 400 / CLI exit 2)
	// regardless of the policy — but only "sized" consumes it.
	Method  string  `json:"method,omitempty"`
	Horizon float64 `json:"horizon,omitempty"`
	WarmUp  float64 `json:"warmUp,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Timeout is the drop threshold: 0 disables, negative derives the
	// mean-residence threshold from a calibration run (policy.TimeoutThreshold).
	Timeout float64 `json:"timeout,omitempty"`
}

// ProcLoss is one processor's loss accounting in a SimulateResult.
type ProcLoss struct {
	Proc      string `json:"proc"`
	Generated int64  `json:"generated"`
	Delivered int64  `json:"delivered"`
	Lost      int64  `json:"lost"`
	Timeout   int64  `json:"timeout"`
}

// SimulateResult is the typed outcome of one simulator run.
type SimulateResult struct {
	Arch   string `json:"arch"`
	Policy string `json:"policy"`
	Budget int    `json:"budget"`
	// DerivedTimeout is the calibrated threshold when the request asked for
	// derivation (Timeout < 0); otherwise the request's own value.
	DerivedTimeout float64    `json:"derivedTimeout,omitempty"`
	Generated      int64      `json:"generated"`
	Delivered      int64      `json:"delivered"`
	Lost           int64      `json:"lost"`
	LossFraction   float64    `json:"lossFraction"`
	TimeoutDrops   int64      `json:"timeoutDrops"`
	PerProc        []ProcLoss `json:"perProc"`
}

// Simulate runs one standalone simulation. The context is checked between
// the calibration and measurement runs (each individual run is a
// short-horizon event loop and runs to completion).
func (e *Engine) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResult, error) {
	e.requests.Add(1)
	rctx, end, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer end()

	a, err := resolveArch(req.Arch, req.ArchJSON)
	if err != nil {
		return nil, err
	}
	if err := validMethod(req.Method); err != nil {
		return nil, err
	}
	if req.Budget <= 0 {
		return nil, invalidf("budget %d must be positive", req.Budget)
	}

	var alloc arch.Allocation
	var polName string
	switch req.Policy {
	case "", "constant":
		a.InsertBridgeBuffers()
		if alloc, err = arch.UniformAllocation(a, req.Budget); err != nil {
			return nil, err
		}
		polName = "constant"
	case "proportional":
		a.InsertBridgeBuffers()
		if alloc, err = arch.ProportionalAllocation(a, req.Budget); err != nil {
			return nil, err
		}
		polName = "proportional"
	case "sized":
		// Full methodology under the requested backend; the simulation then
		// measures its chosen allocation on the buffered clone it sized.
		res, err := e.runSolver(rctx, core.Config{
			Arch:    a,
			Budget:  req.Budget,
			Method:  req.Method,
			Workers: e.requestWorkers(0),
		})
		if err != nil {
			return nil, err
		}
		a, alloc = res.Arch, res.Best.Alloc
		polName = "sized/" + solver.Canonical(req.Method)
	default:
		return nil, invalidf("unknown sizing policy %q (constant | proportional | sized)", req.Policy)
	}
	e.simRuns.Add(1)

	horizon, warmUp, seed := req.Horizon, req.WarmUp, req.Seed
	if horizon == 0 {
		horizon = 2000
	}

	thr := req.Timeout
	if thr < 0 {
		calib, err := sim.New(sim.Config{Arch: a, Alloc: alloc, Horizon: horizon, WarmUp: warmUp, Seed: seed})
		if err != nil {
			return nil, err
		}
		cr, err := calib.Run()
		if err != nil {
			return nil, err
		}
		if thr, err = policy.TimeoutThreshold(cr); err != nil {
			return nil, err
		}
	}
	if err := rctx.Err(); err != nil {
		return nil, err
	}

	s, err := sim.New(sim.Config{
		Arch: a, Alloc: alloc, Horizon: horizon, WarmUp: warmUp, Seed: seed, Timeout: thr,
	})
	if err != nil {
		return nil, err
	}
	r, err := s.Run()
	if err != nil {
		return nil, err
	}

	out := &SimulateResult{
		Arch:           a.Name,
		Policy:         polName,
		Budget:         req.Budget,
		DerivedTimeout: thr,
		Generated:      r.TotalGenerated(),
		Delivered:      r.TotalDelivered(),
		Lost:           r.TotalLost(),
		LossFraction:   r.LossFraction(),
	}
	for _, v := range r.LostTimeout {
		out.TimeoutDrops += v
	}
	for _, p := range report.SortedKeys(r.Generated) {
		out.PerProc = append(out.PerProc, ProcLoss{
			Proc:      p,
			Generated: r.Generated[p],
			Delivered: r.Delivered[p],
			Lost:      r.Lost[p],
			Timeout:   r.LostTimeout[p],
		})
	}
	return out, nil
}
