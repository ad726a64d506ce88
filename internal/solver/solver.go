// Package solver is the backend seam of the buffer-sizing pipeline: every
// entry point (internal/engine, the experiments sweep runners, and through
// them the CLIs and the socbufd HTTP service) calls Run, which looks the
// configuration's method name up in a fixed table of four backends instead
// of hard-wiring the exact CTMDP/LP path:
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
	"maps"
	"slices"
	"strings"

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

// backends maps each method name to its sizing function: a pure function
// from a methodology configuration to a result, safe for concurrent use
// (sweeps fan points across workers) and honouring ctx cancellation between
// major phases. cfg.Method has been consumed by dispatch and arrives empty.
var backends = map[string]func(context.Context, core.Config) (*core.Result, error){
	MethodExact:    core.RunCtx,
	MethodAnalytic: runAnalytic,
	MethodHybrid:   runHybrid,
	MethodRobust:   runRobust,
}

// Methods returns every method name, sorted.
func Methods() []string { return slices.Sorted(maps.Keys(backends)) }

// MethodList renders the method table for flag help strings and error
// messages ("analytic | exact | hybrid | robust").
func MethodList() string { return strings.Join(Methods(), " | ") }

// Canonical normalises a method name for reporting and stats attribution:
// the empty selection IS the exact backend.
func Canonical(name string) string {
	if name == "" {
		return MethodExact
	}
	return name
}

// backend maps a method name to its function. The empty name is the exact
// default. Unknown names fail with the repo-wide uniform message (wrapping
// ErrUnknownMethod), which every CLI and the HTTP 400 path surface
// verbatim.
func backend(name string) (func(context.Context, core.Config) (*core.Result, error), error) {
	run, ok := backends[Canonical(name)]
	if !ok {
		return nil, fmt.Errorf("solver: %w %q (valid methods: %s)", ErrUnknownMethod, name, MethodList())
	}
	return run, nil
}

// CheckMethod reports, with Run's error, whether name selects a backend —
// for callers that validate a request before running it.
func CheckMethod(name string) error {
	_, err := backend(name)
	return err
}

// Run dispatches cfg to the backend named by cfg.Method (empty = exact) —
// the single funnel every sweep point and service request goes through.
func Run(ctx context.Context, cfg core.Config) (*core.Result, error) {
	run, err := backend(cfg.Method)
	if err != nil {
		return nil, err
	}
	cfg.Method = "" // consumed by dispatch; core rejects foreign methods
	return run(ctx, cfg)
}
