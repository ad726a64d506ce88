package engine

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/experiments"
	"socbuf/internal/report"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
	"socbuf/internal/solver"
)

// Solve runs one methodology request. With UseCache, a request whose
// fingerprint already has a stored answer is served from the cache's result
// tier: no run, no coalescing, no in-flight slot. Otherwise concurrent
// identical requests (equal fingerprints) coalesce: one underlying run
// executes on its own goroutine and every caller shares its result — so a
// thundering herd of equal queries costs one solve. A caller whose own ctx
// is cancelled stops waiting and returns ctx.Err(); the shared flight keeps
// running for the remaining waiters and is cancelled only when the last of
// them leaves (or the engine shuts down).
func (e *Engine) Solve(ctx context.Context, req SolveRequest) (*SolveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.requests.Add(1)
	key := req.key()
	if e.isClosed() {
		return nil, ErrClosed
	}
	if req.UseCache {
		res := &SolveResult{}
		if e.lookupResult(key, res) {
			res.Cached = true
			return res, nil
		}
	}
	e.mu.Lock()
	f, ok := e.flights[key]
	joined := ok && f.join()
	if joined {
		e.coalesced.Add(1)
	} else {
		// No flight, or one whose last waiter already left (join refused):
		// start fresh, replacing any dying registration under the key.
		f = newFlight()
		e.flights[key] = f
		go e.runFlight(key, f, req)
	}
	e.mu.Unlock()

	select {
	case <-f.done:
		// A flight that died at admission served nobody: reclassify its
		// followers from Coalesced to Busy so /v1/stats reports the true
		// rejection rate during overload.
		if joined && (errors.Is(f.err, ErrBusy) || errors.Is(f.err, ErrClosed)) {
			e.coalesced.Add(-1)
			e.busy.Add(1)
		}
		return f.res, f.err
	case <-ctx.Done():
		f.leave()
		return nil, ctx.Err()
	}
}

// runFlight executes one coalesced solve under the flight's own context
// (cancelled when every waiter has left; begin additionally merges in the
// engine lifetime) and publishes the outcome exactly once. Publication and
// deregistration happen in a deferred block that also recovers a panicking
// solve, so the key can never be left pointing at a flight that will not
// complete. Coalescing merges concurrent requests only: the flight is
// deregistered before publication, so a later request never joins a
// finished flight. Finished answers are memoised by the cache's result
// tier instead — with UseCache, a successful run is stored there before
// the flight deregisters, so a request arriving after completion finds it.
func (e *Engine) runFlight(key string, f *flight, req SolveRequest) {
	var res *SolveResult
	var err error
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("engine: solve panicked: %v", p)
		}
		f.cancel() // release the flight context's resources
		e.mu.Lock()
		// Guarded: a dying flight may already have been replaced under this
		// key by a fresh one — never deregister a flight we don't own.
		if e.flights[key] == f {
			delete(e.flights, key)
		}
		e.mu.Unlock()
		f.res, f.err = res, err
		close(f.done)
	}()
	rctx, end, berr := e.begin(f.ctx)
	if berr != nil {
		err = berr
		return
	}
	defer end()
	if e.testHookLeaderSolve != nil {
		e.testHookLeaderSolve()
	}
	res, err = e.solve(rctx, req)
	if err == nil && req.UseCache {
		e.storeResult(key, res)
	}
}

// solve is the uncoalesced methodology run.
func (e *Engine) solve(ctx context.Context, req SolveRequest) (*SolveResult, error) {
	cfg, meta, err := req.coreConfig()
	if err != nil {
		return nil, err
	}
	if err := validMethod(cfg.Method); err != nil {
		return nil, err
	}
	if cfg.Budget <= 0 {
		return nil, invalidf("budget %d must be positive", cfg.Budget)
	}
	if req.UseCache {
		cfg.Cache = e.Cache()
	}
	cfg.Workers = e.requestWorkers(cfg.Workers)
	e.solveRuns.Add(1)
	res, err := e.runSolver(ctx, cfg)
	if err != nil {
		return nil, classify(err)
	}
	return newSolveResult(meta, solver.Canonical(cfg.Method), res), nil
}

// validMethod checks a backend name, tagging failures as invalid
// requests so every layer reports them uniformly (CLI exit 2, HTTP 400).
func validMethod(name string) error {
	if err := solver.CheckMethod(name); err != nil {
		return invalidf("%v", err)
	}
	return nil
}

// runSolver executes one methodology run through the backend table,
// recording per-backend counters: one solve, its wall time, and — when the
// run shares the engine cache — the cache-hit delta it observed.
func (e *Engine) runSolver(ctx context.Context, cfg core.Config) (*core.Result, error) {
	before := cfg.Cache.HitCount()
	start := time.Now()
	res, err := solver.Run(ctx, cfg)
	e.recordBackend(solver.Canonical(cfg.Method), 1, time.Since(start), cfg.Cache.HitCount()-before)
	return res, err
}

// newSolveResult shapes a methodology outcome for clients.
func newSolveResult(meta solveMeta, method string, res *core.Result) *SolveResult {
	out := &SolveResult{
		Arch:             res.Arch.Name,
		Scenario:         meta.scenario,
		Topology:         meta.topology,
		Traffic:          meta.traffic,
		Method:           method,
		Budget:           res.BaselineAlloc.Total(),
		Iterations:       len(res.Iterations),
		Subsystems:       len(res.Subsystems),
		UniformLoss:      res.BaselineLoss,
		SizedLoss:        res.Best.SimLoss,
		Improvement:      res.Improvement(),
		BestIteration:    res.Best.Index,
		CapBinding:       res.Best.CapBinding,
		RandomisedStates: res.Best.RandomisedStates,
		Robust:           res.Robust,
	}
	for _, id := range report.SortedKeys(res.Best.Alloc) {
		out.Alloc = append(out.Alloc, AllocRow{
			Buffer:  id,
			Uniform: res.BaselineAlloc[id],
			Sized:   res.Best.Alloc[id],
		})
	}
	return out
}

// BudgetSweep fans the methodology across the request's budgets. With
// UseCache it first consults the cache's result tier — a repeated sweep is
// answered from the stored result, its rows replayed through OnRow in
// budget order — and otherwise plans and prewarms (one cold solve per
// distinct sub-model fingerprint) and hands the plan back alongside the
// sweep; only sweeps without a failed point are stored. Partial failures
// follow the experiments contract: the result carries every successful
// point, the error joins the per-point failures.
func (e *Engine) BudgetSweep(ctx context.Context, req BudgetSweepRequest) (*BudgetSweepResult, error) {
	e.requests.Add(1)
	var key string
	if req.UseCache {
		if e.isClosed() {
			return nil, ErrClosed
		}
		key = req.Fingerprint()
		out := &BudgetSweepResult{}
		if e.lookupResult(key, out) {
			out.Cached = true
			if req.OnRow != nil {
				for _, row := range out.Sweep.Rows() {
					req.OnRow(row)
				}
			}
			return out, nil
		}
	}
	rctx, end, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer end()

	if len(req.Budgets) == 0 {
		return nil, invalidf("empty budget list")
	}
	if err := validMethod(req.Method); err != nil {
		return nil, err
	}
	if len(req.Methods) != 0 && len(req.Methods) != len(req.Budgets) {
		return nil, invalidf("%d per-point methods for %d budgets", len(req.Methods), len(req.Budgets))
	}
	for _, m := range req.Methods {
		if m == "" {
			continue // inherits the default method
		}
		if err := validMethod(m); err != nil {
			return nil, err
		}
	}
	a, err := resolveArch(req.Arch, req.ArchJSON)
	if err != nil {
		return nil, err
	}
	e.sweepRuns.Add(1)
	opt := experiments.Options{
		Iterations:   req.Iterations,
		Seeds:        req.Seeds,
		Horizon:      req.Horizon,
		WarmUp:       req.WarmUp,
		Workers:      e.requestWorkers(req.Workers),
		OnBudgetRow:  req.OnRow,
		Method:       req.Method,
		PointMethods: req.Methods,
		Uncertainty:  req.Uncertainty,
		Observer:     e.sweepObserver(),
	}
	if req.UseCache {
		opt.Cache = e.Cache()
	}
	// Fresh clone per point, per the BudgetSweepCtx contract.
	res, plan, err := experiments.SweepWithPlanCtx(rctx, func() *arch.Architecture { return a.Clone() }, req.Budgets, opt)
	if res == nil {
		return nil, err
	}
	out := &BudgetSweepResult{ArchName: a.Name, Sweep: res, Plan: plan}
	if err == nil && req.UseCache {
		e.storeResult(key, out)
	}
	return out, err
}

// lookupResult decodes the result tier's answer for request fingerprint key
// into out, reporting whether there was one. The stored form is the JSON
// encoding, which round-trips every float64 exactly, so a hit is
// bit-identical to the run that stored it and shares no memory with it.
func (e *Engine) lookupResult(key string, out any) bool {
	k, ok := resultKey(key)
	if !ok {
		return false
	}
	b, ok := e.cache.LookupResult(k)
	// An undecodable payload (never expected: the engine wrote it) counts
	// as a miss; the fresh run overwrites it.
	return ok && json.Unmarshal(b, out) == nil
}

// storeResult files a successful answer in the result tier under request
// fingerprint key. An answer JSON cannot encode (a NaN) is not stored.
func (e *Engine) storeResult(key string, v any) {
	k, ok := resultKey(key)
	if !ok {
		return
	}
	if b, err := json.Marshal(v); err == nil {
		e.cache.PutResult(k, b)
	}
}

// resultKey turns a request fingerprint into a result-tier key: the
// fingerprint is already a domain-tagged SHA-256 in hex, so its bytes are
// the key.
func resultKey(fingerprint string) (solvecache.Key, bool) {
	var k solvecache.Key
	n, err := hex.Decode(k[:], []byte(fingerprint))
	return k, err == nil && n == len(k)
}

// sweepObserver records each sweep point's solve under its backend. Cache
// hits are not attributed per point (points share the cache concurrently);
// they remain visible in the request-level cache counters.
func (e *Engine) sweepObserver() func(method string, wall time.Duration) {
	return func(method string, wall time.Duration) {
		e.recordBackend(method, 1, wall, 0)
	}
}

// ScenarioSweep fans the methodology over the requested registry scenarios,
// applying the override semantics the experiments CLI used to hand-wire:
// explicit overrides beat both Quick and the scenarios' own values.
func (e *Engine) ScenarioSweep(ctx context.Context, req ScenarioSweepRequest) (*ScenarioSweepResult, error) {
	e.requests.Add(1)
	rctx, end, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer end()

	if err := validMethod(req.Method); err != nil {
		return nil, err
	}
	scs, err := scenario.Resolve(req.Scenarios)
	if err != nil {
		return nil, invalidf("%v", err)
	}
	e.sweepRuns.Add(1)
	opt := experiments.Options{
		Workers:       e.requestWorkers(req.Workers),
		OnScenarioRow: req.OnRow,
		Uncertainty:   req.Uncertainty,
		Observer:      e.sweepObserver(),
	}
	if req.UseCache {
		opt.Cache = e.Cache()
	}
	if req.Quick {
		opt.Iterations, opt.Seeds, opt.Horizon = 3, []int64{1, 2}, 1200
	}
	for i := range scs {
		if req.Budget > 0 {
			scs[i].Budget = req.Budget
		}
		if req.Method != "" {
			scs[i].Method = req.Method
		}
		if req.Iterations > 0 {
			scs[i].Iterations = req.Iterations
		}
		if req.Horizon > 0 {
			scs[i].Horizon = req.Horizon
		}
		if len(req.Seeds) > 0 {
			scs[i].Seeds = req.Seeds
		}
		if req.Quick {
			// Zero the scenario's own knobs so opt's quick settings apply,
			// except where an explicit override already won.
			if req.Iterations == 0 {
				scs[i].Iterations = 0
			}
			if len(req.Seeds) == 0 {
				scs[i].Seeds = nil
			}
			if req.Horizon == 0 {
				scs[i].Horizon = 0
			}
		}
	}
	res, err := experiments.ScenarioSweepCtx(rctx, scs, opt)
	if res == nil {
		return nil, err
	}
	return &ScenarioSweepResult{Sweep: res}, err
}

// requestWorkers resolves a per-request worker bound against the engine
// default, clamped so one admitted request can never exceed the operator's
// parallelism bound (the engine default when set, GOMAXPROCS otherwise) —
// a client asking for 10000 workers gets the server's bound, not a fork
// bomb. Requests may go below the bound (e.g. 1 = serial).
func (e *Engine) requestWorkers(n int) int {
	limit := e.workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if n <= 0 || n > limit {
		return limit
	}
	return n
}

// WriteCacheStats renders the engine-owned cache's counters in the shared
// report format (the body of the CLIs' -cache-stats flag).
func (e *Engine) WriteCacheStats(w io.Writer) error {
	return experiments.WriteCacheStats(w, e.Cache().Stats())
}
