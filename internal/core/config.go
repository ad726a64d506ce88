// Package core implements the paper's buffer-insertion and buffer-sizing
// methodology end to end:
//
//  1. insert buffers at every bridge (arch.InsertBridgeBuffers), which
//     splits the architecture into linear single-bus subsystems
//     (graph.Split);
//  2. model every subsystem as a CTMDP over quantised buffer levels
//     (ctmdp.NewModel), with bridge buffers appearing as clients of the
//     draining bus and as downstream-loss terms of the feeding bus;
//  3. solve the subsystems' occupation-measure programs through the solve
//     cache (solvecache.Cache.SolveJoint): each cap-free bus on its
//     canonical clone, then the program linked by a total
//     expected-occupancy cap, solved bus by bus under an occupancy price
//     (ctmdp.SolveJoint);
//     refresh the bridge boundary scalars (arrival rates and full
//     probabilities) by a damped fixed point, keeping every inner solve
//     linear — the paper's §2 device;
//  4. translate the optimal occupation measure into physical buffer lengths
//     (ctmdp.Translate, the K-switching step);
//  5. resimulate with the new lengths (internal/sim) and compare losses;
//     repeat for a fixed number of iterations (the paper uses 10) and keep
//     the best allocation.
package core

import (
	"errors"
	"fmt"
	"math"

	"socbuf/internal/arch"
	"socbuf/internal/sim"
	"socbuf/internal/solvecache"
	"socbuf/internal/trace"
	"socbuf/internal/uncertain"
)

// SourceFactory builds the per-flow arrival processes of one evaluation
// simulation. The methodology invokes it once per seed with the buffered
// clone it works on, and passes the result to sim.Config.Sources; flows
// without an entry keep the paper's Poisson model. Implementations must
// return fresh Source instances on every call: sources may carry mutable
// state (trace.OnOff does), and seeds simulate concurrently.
type SourceFactory func(a *arch.Architecture) (map[sim.FlowKey]trace.Source, error)

// The CTMDP quantisation of every bus model. ctmdp.MaxStates is sized from
// the first two: (levels+1)^maxClients = 81 states.
const (
	// levels is the quantisation depth of each client queue in the CTMDP
	// state space: levels 0..2.
	levels = 2
	// maxClients caps the number of clients per bus model; colder clients
	// are aggregated (ctmdp.AggregateClients).
	maxClients = 4
	// capFactor scales the joint occupancy cap of each iteration's final
	// solve: cap = capFactor × (free solve's occupancy), so the budget link
	// binds. The ladder's higher rungs (0.96, 0.97) answer when it is
	// infeasible.
	capFactor = 0.92
)

// BoundaryIters is the number of bridge-boundary fixed-point updates per
// methodology iteration. The analytic and robust backends run the same
// depth and fold it into their cache fingerprints.
const BoundaryIters = 3

// Config parameterises a methodology run. Zero values select the defaults
// noted per field.
type Config struct {
	// Arch is the architecture to size. It is cloned; bridges are buffered
	// in the clone.
	Arch *arch.Architecture
	// Method selects the solver backend ("exact" | "analytic" | "hybrid";
	// empty means exact). Dispatch lives in internal/solver — Run/RunCtx
	// implement only the exact CTMDP/LP path and reject any other value, so
	// a request for the analytic backend can never silently run the LP.
	Method string
	// Budget is the total buffer space in units (the paper sweeps 160, 320,
	// 640 on the network-processor testbed).
	Budget int
	// Iterations of the size→solve→resimulate loop. Default 10.
	Iterations int
	// Seeds for the evaluation simulations; results are summed across
	// seeds. Default {1, 2, 3}.
	Seeds []int64
	// Horizon and WarmUp of each evaluation simulation. Defaults 2000, 100.
	Horizon float64
	WarmUp  float64
	// Traffic optionally overrides the evaluation simulations' arrival
	// processes (bursty/OnOff robustness runs). The CTMDP models keep their
	// Poisson arrival assumption — the simulator is the ground truth that
	// measures how the sized system behaves under the alternative traffic.
	// Nil keeps Poisson flows everywhere.
	Traffic SourceFactory
	// LossWeights optionally weighs processors' losses in the objective
	// ("allowing some losses to be more important than the others", §3).
	// Keyed by processor ID; missing entries weigh 1.
	LossWeights map[string]float64
	// Workers bounds the goroutines used for the per-seed evaluation
	// simulations. 0 (or negative) means GOMAXPROCS; 1 forces serial
	// execution. Results are independent of the worker count.
	Workers int
	// Cache holds the run's sub-model solutions: every solve inside the
	// methodology loop goes through it, so identical per-bus sub-models
	// (across methodology iterations, budget points and scenarios —
	// wherever the same cache is shared) are solved once. Nil solves every
	// sub-model cold on the same path (solvecache's nil receiver). A cache
	// only saves work: its payloads are pure functions of their keys, so
	// results are the same with or without one, and for any worker count.
	Cache *solvecache.Cache
	// Uncertainty attaches a traffic-uncertainty spec for the robust
	// backend's chance-constrained sizing (internal/solver's "robust"
	// method). The exact path carries it untouched — only the robust
	// backend consumes it; nil means "spec defaults" there. Validated here
	// so a bad spec fails every entry point uniformly.
	Uncertainty *uncertain.Spec
	// RefineStationary is refused: the option to recompute each bus's
	// stationary distribution after the solve was removed, because policy
	// iteration already returns it. The field stays only because the
	// benchmark module still compiles against it; true fails with
	// ErrInvalidConfig.
	RefineStationary bool
}

// ErrInvalidConfig tags every Config the methodology rejects before
// running — a negative horizon or iteration count, a warm-up outside
// [0, horizon), an invalid uncertainty spec, a budget below one unit per
// buffer… — so callers can tell a caller's mistake from a solve failure.
// Match with errors.Is.
var ErrInvalidConfig = errors.New("invalid config")

// invalidf builds an ErrInvalidConfig-tagged error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Method != "" && c.Method != "exact" {
		return c, invalidf("method %q is dispatched by internal/solver; core runs only the exact CTMDP/LP path", c.Method)
	}
	if c.Arch == nil {
		return c, invalidf("nil architecture")
	}
	if c.RefineStationary {
		return c, invalidf("the refine option was removed: policy iteration returns each bus's stationary distribution")
	}
	if c.Budget <= 0 {
		return c, invalidf("budget %d must be positive", c.Budget)
	}
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.Iterations < 0 {
		return c, invalidf("negative iterations %d", c.Iterations)
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.Horizon == 0 {
		c.Horizon = 2000
	}
	// NaN passes every comparison below, so finiteness is checked first.
	if math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) {
		return c, invalidf("horizon %v must be finite", c.Horizon)
	}
	if c.Horizon < 0 {
		return c, invalidf("negative horizon %v", c.Horizon)
	}
	warmUp := "warm-up"
	if c.WarmUp == 0 {
		c.WarmUp = 100
		warmUp = "default warm-up"
	}
	if math.IsNaN(c.WarmUp) || c.WarmUp < 0 || c.WarmUp >= c.Horizon {
		return c, invalidf("%s %v outside [0, horizon %v)", warmUp, c.WarmUp, c.Horizon)
	}
	if c.Uncertainty != nil {
		if err := c.Uncertainty.Validate(); err != nil {
			return c, fmt.Errorf("core: %w: %w", ErrInvalidConfig, err)
		}
	}
	return c, nil
}
