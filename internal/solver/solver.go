// Package solver is the pluggable backend seam of the buffer-sizing
// pipeline: every entry point (internal/engine, the experiments sweep
// runners, and through them the CLIs and the socbufd HTTP service) resolves
// a method name to a Solver and calls Run, instead of hard-wiring the exact
// CTMDP/LP path. Four backends register at init:
//
//   - "exact" — the paper's CTMDP/LP methodology (core.RunCtx), unchanged:
//     solver.Run with the exact method is byte-identical to calling core.Run
//     directly.
//   - "analytic" — closed-form M/M/1/K blocking (internal/queueing) plus a
//     marginal-allocation greedy over the budget; no LP is ever assembled.
//     Orders of magnitude cheaper per point, with loss estimates that rank
//     candidate sizings almost identically to the exact model.
//   - "hybrid" — analytic screening of the allocation space followed by
//     exact CTMDP refinement of the screened candidates, with a gated
//     agreement check that falls back to the full exact loop whenever the
//     screen and the LP disagree.
//   - "robust" — chance-constrained Monte-Carlo sizing under traffic
//     uncertainty (internal/uncertain): N correlated rate perturbations,
//     analytic yield scoring of candidate sizings on identical sample
//     paths, and a Wilson-guarded cheapest-first selection.
//
// All backends speak core.Config → *core.Result, so everything downstream
// (reports, sweeps, the service's JSON shapes) is backend-agnostic. The
// solve cache qualifies its fingerprints by backend
// (internal/solvecache) — a robust sizing can never rebind as an exact
// solution. The analytic backend caches nothing: its sizing costs about as
// much as a fingerprint. DESIGN.md §6 records the full backend contract.
package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"socbuf/internal/core"
)

// Canonical method names.
const (
	MethodExact    = "exact"
	MethodAnalytic = "analytic"
	MethodHybrid   = "hybrid"
	MethodRobust   = "robust"
)

// ErrUnknownMethod tags method-resolution failures. Every layer surfaces it
// uniformly: the CLIs exit 2 (usage error), socbufd answers 400 — both via
// engine.ErrInvalidRequest wrapping.
var ErrUnknownMethod = errors.New("unknown method")

// Solver is one sizing backend: a pure function from a methodology
// configuration to a result. Implementations must be safe for concurrent
// use (sweeps fan points across workers) and must honour ctx cancellation
// between major phases.
type Solver interface {
	// Name returns the registry method name.
	Name() string
	// Run executes the methodology with this backend. cfg.Method has been
	// consumed by dispatch and arrives empty.
	Run(ctx context.Context, cfg core.Config) (*core.Result, error)
}

var registry = struct {
	sync.Mutex
	m map[string]Solver
}{m: map[string]Solver{}}

// Register adds a backend to the registry. Duplicate names are rejected —
// a backend's identity is load-bearing (cache keys, stats attribution).
func Register(s Solver) error {
	if s == nil || s.Name() == "" {
		return errors.New("solver: nil or unnamed backend")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[s.Name()]; dup {
		return fmt.Errorf("solver: %q already registered", s.Name())
	}
	registry.m[s.Name()] = s
	return nil
}

func mustRegister(s Solver) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Methods returns every registered method name, sorted.
func Methods() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MethodList renders the registry for flag help strings and error messages
// ("analytic | exact | hybrid | robust").
func MethodList() string { return strings.Join(Methods(), " | ") }

// Canonical normalises a method name for reporting and stats attribution:
// the empty selection IS the exact backend.
func Canonical(name string) string {
	if name == "" {
		return MethodExact
	}
	return name
}

// Resolve maps a method name to its backend. The empty name is the exact
// default. Unknown names fail with the repo-wide uniform message (wrapping
// ErrUnknownMethod), which every CLI and the HTTP 400 path surface
// verbatim.
func Resolve(name string) (Solver, error) {
	if name == "" {
		name = MethodExact
	}
	registry.Lock()
	s := registry.m[name]
	registry.Unlock()
	if s == nil {
		return nil, fmt.Errorf("solver: %w %q (valid methods: %s)", ErrUnknownMethod, name, MethodList())
	}
	return s, nil
}

// Run dispatches cfg to the backend named by cfg.Method (empty = exact) —
// the single funnel every sweep point and service request goes through.
func Run(ctx context.Context, cfg core.Config) (*core.Result, error) {
	s, err := Resolve(cfg.Method)
	if err != nil {
		return nil, err
	}
	cfg.Method = "" // consumed by dispatch; core rejects foreign methods
	return s.Run(ctx, cfg)
}
