// Package engine is the unified solve service behind every entry point of
// the repository: one long-lived Engine owns the shared solve cache
// (internal/solvecache), the worker-pool bound, request coalescing and
// cancellation, and answers typed requests — single methodology solves,
// budget sweeps, scenario sweeps, and plain simulator runs. The CLIs
// (cmd/socbuf, cmd/experiments, cmd/socsim) and the HTTP service
// (cmd/socbufd) are thin clients; the engine is the only place that composes
// scenario → architecture → solve → report.
//
// Request lifecycle (DESIGN.md §5 records the full contract):
//
//  1. admission — a closed engine rejects with ErrClosed; when
//     Config.MaxInFlight is set and that many requests are already
//     executing, admission fails fast with ErrBusy (callers translate to
//     backpressure, e.g. HTTP 503). The closed check runs first, the
//     in-flight slot is taken last;
//  2. result tier (Solve and BudgetSweep with UseCache) — a request whose
//     content-addressed fingerprint already has a stored answer in the
//     cache's result tier gets that answer back, flagged Cached, before
//     coalescing and admission: no run, no flight, no in-flight slot.
//     Successful answers are stored as they finish;
//  3. coalescing (Solve only) — concurrent identical requests, keyed by the
//     same fingerprint of the normalised request, share one underlying
//     methodology run: the first arrival registers a flight that executes
//     on its own goroutine, later arrivals join it, and all receive the
//     same *SolveResult (immutable once published — treat as read-only).
//     Waiters are refcounted: the run is cancelled only when the last one
//     leaves, so one disconnecting client never fails its coalesced peers;
//  4. execution — the request runs under a context derived from BOTH the
//     caller's context and the engine's lifetime, so either a client
//     disconnect or Shutdown cancels it; cancellation threads down through
//     experiments → core → internal/parallel, which never abandons
//     goroutines;
//  5. completion — results come back typed (SolveResult, BudgetSweepResult,
//     …) with machine-readable JSON shapes, and sweep requests can stream
//     per-point rows as they complete via their OnRow hooks.
//
// Determinism: the engine adds no scheduling of its own — it delegates to
// the same experiments/core code paths the CLIs called before it existed, so
// engine-path results are identical to the direct-path results for every
// worker count (TestEngineSolveMatchesDirectPath pins this).
package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"socbuf/internal/solvecache"
)

// ErrBusy is returned when Config.MaxInFlight requests are already executing
// and a new one arrives. The request was not started; retrying later is
// safe.
var ErrBusy = errors.New("engine: too many in-flight requests")

// ErrClosed is returned by requests that arrive at (or are coalesced into)
// an engine that has been shut down.
var ErrClosed = errors.New("engine: shut down")

// ErrInvalidRequest tags request-normalisation failures (unknown scenario or
// preset, conflicting fields, missing budget…), so service layers can
// distinguish caller mistakes (HTTP 400) from solver failures (HTTP 500).
// Match with errors.Is.
var ErrInvalidRequest = errors.New("invalid request")

// Config parameterises a new Engine. The zero value is usable: fresh cache,
// GOMAXPROCS workers, no in-flight bound.
type Config struct {
	// Workers is the default worker-pool bound for requests that do not set
	// their own (0 = GOMAXPROCS, 1 = serial). Per-request Workers fields
	// override it.
	Workers int
	// MaxInFlight bounds concurrently executing requests; 0 means unbounded.
	// Requests beyond the bound fail fast with ErrBusy rather than queueing
	// — the service layer turns that into backpressure. Coalesced followers
	// do not consume slots (they wait on the leader's flight).
	MaxInFlight int
	// Cache, when non-nil, is adopted instead of a fresh solve cache. All
	// requests with UseCache set share the engine's cache fleet-wide. An
	// adopted cache keeps whatever bound it was built with (the caller owns
	// its lifetime); MaxCacheEntries does not apply to it.
	Cache *solvecache.Cache
	// MaxCacheEntries bounds every tier of an engine-owned cache
	// (solvecache.NewBounded): past it, a tier evicts its least recently
	// used entry, which bounds a long-lived server fed client-chosen inline
	// architectures. Eviction costs a recompute, never correctness — cached
	// payloads are pure functions of their fingerprints. 0 means unbounded.
	MaxCacheEntries int
	// RemoteCache, when non-nil, attaches a shared remote store behind the
	// engine cache's robust and placement tiers (DESIGN.md §10): their
	// local misses consult it, their fresh payloads are written behind it.
	// Exact sub-model solves, analytic sizings and whole results never
	// reach it. The engine does not own the store's lifetime (callers close
	// a RemoteStore themselves).
	RemoteCache solvecache.Store
}

// Engine is the long-lived solve service. Create with New; an Engine must
// not be copied. All methods are safe for concurrent use.
type Engine struct {
	cache   *solvecache.Cache
	workers int
	sem     chan struct{} // nil = unbounded

	baseCtx context.Context // cancelled on Shutdown; every request derives from it
	cancel  context.CancelFunc

	mu      sync.Mutex
	closed  bool
	wg      sync.WaitGroup     // in-flight requests
	flights map[string]*flight // coalescing table, keyed by request fingerprint

	requests  atomic.Int64
	coalesced atomic.Int64
	solveRuns atomic.Int64
	sweepRuns atomic.Int64
	simRuns   atomic.Int64
	placeRuns atomic.Int64
	busy      atomic.Int64
	inFlight  atomic.Int64

	// backends accumulates per-solver-backend counters (guarded by bmu):
	// methodology runs executed, total wall time, and cache-hit deltas.
	bmu      sync.Mutex
	backends map[string]*backendAcc

	// testHookLeaderSolve, when non-nil, runs in the flight leader after the
	// flight is registered and before the underlying solve starts. Tests use
	// it to hold a flight open deterministically while followers attach.
	testHookLeaderSolve func()
}

// flight is one in-progress coalesced solve. done is closed exactly once,
// after res/err are set; both are immutable afterwards. The flight runs on
// its own goroutine under its own context, with the waiters refcounted: it
// is cancelled only when every interested request has gone away (or the
// engine shuts down), so one disconnecting client never fails its coalesced
// peers.
type flight struct {
	done chan struct{}
	res  *SolveResult
	err  error

	mu      sync.Mutex
	waiters int
	ctx     context.Context
	cancel  context.CancelFunc
}

// newFlight builds a flight with its creator already registered as a waiter.
func newFlight() *flight {
	ctx, cancel := context.WithCancel(context.Background())
	return &flight{done: make(chan struct{}), waiters: 1, ctx: ctx, cancel: cancel}
}

// join registers one more waiter. It refuses (returns false) when the last
// waiter already left — the flight's context is cancelled and it is about
// to publish a spurious cancellation, so a live request must start a fresh
// flight instead of inheriting the dying one.
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.waiters == 0 {
		return false
	}
	f.waiters++
	return true
}

// leave unregisters a waiter that stopped waiting. When the last waiter
// leaves before completion, the flight's context is cancelled — the solve
// stops doing work nobody wants.
func (f *flight) leave() {
	f.mu.Lock()
	f.waiters--
	if f.waiters == 0 {
		f.cancel()
	}
	f.mu.Unlock()
}

// New builds an Engine from cfg.
func New(cfg Config) *Engine {
	cache := cfg.Cache
	if cache == nil {
		cache = solvecache.NewBounded(cfg.MaxCacheEntries)
	}
	if cfg.RemoteCache != nil {
		cache.SetRemote(cfg.RemoteCache)
	}
	var sem chan struct{}
	if cfg.MaxInFlight > 0 {
		sem = make(chan struct{}, cfg.MaxInFlight)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Engine{
		cache:    cache,
		workers:  cfg.Workers,
		sem:      sem,
		baseCtx:  ctx,
		cancel:   cancel,
		flights:  map[string]*flight{},
		backends: map[string]*backendAcc{},
	}
}

// backendAcc accumulates one backend's counters.
type backendAcc struct {
	solves    int64
	wall      time.Duration
	cacheHits int64
}

// recordBackend folds one observation into a backend's counters. Solve
// counts and wall times come from the per-run observer (sweeps report one
// observation per point); cache-hit deltas are measured per request and
// attributed to the request's backend — under concurrent cache-sharing
// requests the attribution between backends is approximate (the totals
// remain exact), which is the documented trade for keeping the solve hot
// path free of per-hit instrumentation.
func (e *Engine) recordBackend(method string, solves int64, wall time.Duration, cacheHits int64) {
	e.bmu.Lock()
	acc := e.backends[method]
	if acc == nil {
		acc = &backendAcc{}
		e.backends[method] = acc
	}
	acc.solves += solves
	acc.wall += wall
	acc.cacheHits += cacheHits
	e.bmu.Unlock()
}

// BackendStats is one solver backend's counter snapshot, served by
// /v1/stats under the backend's method name.
type BackendStats struct {
	// Solves counts methodology runs executed with this backend — sweep
	// points individually, failed runs included (they consumed the time).
	Solves int64 `json:"solves"`
	// CacheHits is the solve-cache hits (exact and robust tiers summed —
	// solvecache.Cache.HitCount) observed during this backend's requests.
	// The analytic backend caches nothing, so its count stays 0.
	CacheHits int64 `json:"cacheHits"`
	// MeanWallMS is the mean wall time per run, in milliseconds.
	MeanWallMS float64 `json:"meanWallMs"`
}

// Cache exposes the engine's solve cache (for stats reporting; callers must
// not mutate it structurally). It is fixed for the engine's lifetime.
func (e *Engine) Cache() *solvecache.Cache { return e.cache }

// Stats is a point-in-time snapshot of the engine counters plus the owned
// cache's counters. The JSON shape is served verbatim by socbufd /v1/stats.
type Stats struct {
	// Requests counts every API request received, result-tier hits and
	// coalesced followers included — even ones later rejected by admission
	// (Busy tracks those) or failed by validation.
	Requests int64 `json:"requests"`
	// Coalesced counts solve requests served by another request's flight
	// instead of their own methodology run.
	Coalesced int64 `json:"coalesced"`
	// SolveRuns / SweepRuns / SimRuns count underlying executions — a
	// request that failed validation or admission never counts here. A
	// coalesced burst of N identical solves is N requests, N−1 coalesced,
	// and exactly 1 solve run.
	SolveRuns int64 `json:"solveRuns"`
	SweepRuns int64 `json:"sweepRuns"`
	SimRuns   int64 `json:"simRuns"`
	// PlacementRuns counts placement executions — a placement request served
	// from the cache's placement tier never counts here.
	PlacementRuns int64 `json:"placementRuns"`
	// Busy counts requests rejected by the in-flight bound.
	Busy int64 `json:"busyRejections"`
	// InFlight is the number of currently executing requests.
	InFlight int64 `json:"inFlight"`
	// Cache is the owned solve cache's counter snapshot.
	Cache solvecache.Stats `json:"cache"`
	// CacheRates are the cache's per-tier hit rates derived from those
	// counters (solvecache.Stats.Rates); only tiers that saw traffic appear.
	CacheRates map[string]float64 `json:"cacheRates,omitempty"`
	// Backends breaks the methodology runs down by solver backend
	// ("exact" | "analytic" | "hybrid" | "robust"); only backends that have
	// executed appear. A request answered from the result tier ran no
	// backend, so it moves none of these counters.
	Backends map[string]BackendStats `json:"backends,omitempty"`
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.bmu.Lock()
	backends := make(map[string]BackendStats, len(e.backends))
	for m, acc := range e.backends {
		bs := BackendStats{Solves: acc.solves, CacheHits: acc.cacheHits}
		if acc.solves > 0 {
			bs.MeanWallMS = float64(acc.wall) / float64(time.Millisecond) / float64(acc.solves)
		}
		backends[m] = bs
	}
	e.bmu.Unlock()
	if len(backends) == 0 {
		backends = nil
	}
	cs := e.cache.Stats()
	return Stats{
		Requests:      e.requests.Load(),
		Coalesced:     e.coalesced.Load(),
		SolveRuns:     e.solveRuns.Load(),
		SweepRuns:     e.sweepRuns.Load(),
		SimRuns:       e.simRuns.Load(),
		PlacementRuns: e.placeRuns.Load(),
		Busy:          e.busy.Load(),
		InFlight:      e.inFlight.Load(),
		Cache:         cs,
		CacheRates:    cs.Rates(),
		Backends:      backends,
	}
}

// isClosed reports whether Shutdown has begun.
func (e *Engine) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// begin admits one request: closed check, in-flight slot, and a request
// context derived from both the caller's ctx and the engine lifetime. The
// returned end func releases everything and must be called exactly once
// (it is idempotent).
func (e *Engine) begin(ctx context.Context) (context.Context, func(), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if e.sem != nil {
		select {
		case e.sem <- struct{}{}:
		default:
			e.mu.Unlock()
			e.busy.Add(1)
			return nil, nil, ErrBusy
		}
	}
	// wg.Add under the same lock as the closed check, so Shutdown's Wait
	// cannot slip between admission and registration.
	e.wg.Add(1)
	e.mu.Unlock()

	e.inFlight.Add(1)
	rctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(e.baseCtx, cancel) // shutdown cancels the request
	var once sync.Once
	end := func() {
		once.Do(func() {
			stop()
			cancel()
			if e.sem != nil {
				<-e.sem
			}
			e.inFlight.Add(-1)
			e.wg.Done()
		})
	}
	return rctx, end, nil
}

// Shutdown gracefully stops the engine: new requests are rejected with
// ErrClosed, every in-flight request's context is cancelled (cancellation
// threads down to the sweep workers, which finish their current point and
// exit), and Shutdown blocks until all requests have returned or ctx
// expires. Idempotent.
func (e *Engine) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		e.cancel()
	}
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Shutdown with no deadline.
func (e *Engine) Close() error { return e.Shutdown(context.Background()) }
