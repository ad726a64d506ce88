package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/experiments"
	"socbuf/internal/scenario"
	"socbuf/internal/uncertain"
)

// SolveRequest asks for one methodology run — the paper's pure function from
// (architecture, traffic, budget) to a sizing policy. Exactly one of
// Scenario, Arch or ArchJSON selects the architecture:
//
//   - Scenario names a registry scenario; its topology, traffic model and
//     solver knobs apply, and any non-zero request field overrides the
//     scenario's own value (the CLI's explicit-flags-win semantics);
//   - Arch names a preset ("figure1" | "twobus" | "netproc"; empty defaults
//     to "netproc"); Budget is then required;
//   - ArchJSON carries an inline architecture in the arch.ReadJSON format.
//
// The JSON shape of this struct is the /v1/solve request body.
type SolveRequest struct {
	Scenario string          `json:"scenario,omitempty"`
	Arch     string          `json:"arch,omitempty"`
	ArchJSON json.RawMessage `json:"archJSON,omitempty"`

	Budget     int     `json:"budget,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Seeds      []int64 `json:"seeds,omitempty"`
	Horizon    float64 `json:"horizon,omitempty"`
	WarmUp     float64 `json:"warmUp,omitempty"`
	// Method selects the solver backend ("exact" | "analytic" | "hybrid" |
	// "robust"; empty inherits the scenario's own method, or the exact
	// default). Unknown names fail request validation (HTTP 400 / CLI exit
	// 2) with the uniform message listing the valid methods.
	Method string `json:"method,omitempty"`
	// Uncertainty attaches a traffic-uncertainty spec for the robust
	// backend (nil inherits the scenario's spec, or that backend's
	// defaults). It is part of the coalescing identity.
	Uncertainty *uncertain.Spec `json:"uncertainty,omitempty"`
	// Refine is refused with ErrInvalidRequest: the post-solve stationary
	// refinement was removed (core.Config.RefineStationary). The field
	// stays only because the benchmark module still compiles against it.
	Refine bool `json:"refine,omitempty"`
	// Workers bounds this request's worker pool (0 inherits the engine
	// default). Results are identical for every worker count.
	Workers int `json:"workers,omitempty"`
	// UseCache routes every solve through the engine's shared cache.
	UseCache bool `json:"useCache,omitempty"`
}

// key is the coalescing fingerprint: a content-addressed hash of the
// request's canonical JSON serialisation (struct field order is fixed, so
// the encoding is deterministic). Two requests with equal keys ask for the
// same mathematical problem under the same options and may share one
// underlying run — the request-level analogue of the solvecache fingerprint
// contract (DESIGN.md §4), with the finer-grained sub-model dedup still
// happening inside solvecache for cache-enabled requests.
//
// Two identities are normalised before hashing: the default preset name is
// made explicit (an empty arch selection IS "netproc", so {"budget":160}
// and {"arch":"netproc","budget":160} coalesce), and the worker bound is
// dropped (results are identical for every worker count by the repo-wide
// contract, so requests differing only there may share a run). Everything
// else is identity — including UseCache: a shared cache only saves work and
// never moves an answer, but UseCache selects whether the answer is stored
// in and served from the result tier.
func (r SolveRequest) key() string {
	k := r
	if k.Scenario == "" && len(k.ArchJSON) == 0 && k.Arch == "" {
		k.Arch = "netproc"
	}
	k.Workers = 0
	return hashRequest("solve", k, &r)
}

// Fingerprint is the request's normalised content fingerprint — the same
// identity Solve coalesces on, exported so a routing layer can shard by it:
// sending equal-fingerprint requests to one backend is exactly what lets
// coalescing and cache locality survive scale-out (DESIGN.md §10). The four
// request types fingerprint in disjoint domains (a solve and a placement of
// the same architecture never collide).
func (r SolveRequest) Fingerprint() string { return r.key() }

// Fingerprint is the sweep request's normalised content fingerprint (see
// SolveRequest.Fingerprint): default preset made explicit, worker bound
// dropped, streaming hook excluded by construction.
func (r BudgetSweepRequest) Fingerprint() string {
	k := r
	if len(k.ArchJSON) == 0 && k.Arch == "" {
		k.Arch = "netproc"
	}
	k.Workers = 0
	return hashRequest("sweep-budget", k, &r)
}

// Fingerprint is the scenario sweep's normalised content fingerprint (see
// SolveRequest.Fingerprint).
func (r ScenarioSweepRequest) Fingerprint() string {
	k := r
	k.Workers = 0
	return hashRequest("sweep-scenario", k, &r)
}

// hashRequest renders one normalised request as a domain-tagged
// content-addressed hex key. The canonical JSON serialisation is
// deterministic (struct field order is fixed); the tag keeps the four
// request types' fingerprint spaces disjoint.
func hashRequest(tag string, normalised any, orig any) string {
	b, err := json.Marshal(normalised)
	if err != nil {
		// Unreachable: the structs contain only marshalable fields. Fall
		// back to a never-coalescing sentinel rather than panicking.
		return fmt.Sprintf("unkeyed:%p", orig)
	}
	sum := sha256.Sum256(append([]byte(tag+":"), b...))
	return hex.EncodeToString(sum[:])
}

// solveMeta carries the scenario identity a solve ran under, for the result.
type solveMeta struct {
	scenario, topology, traffic string
}

// invalidf builds an ErrInvalidRequest-tagged error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("engine: %w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
}

// classify tags a methodology configuration the core or the placement DP
// rejected (core.ErrInvalidConfig: a negative horizon, a warm-up past it, an
// invalid uncertainty spec, a budget below the buffer floor…) as the
// caller's mistake, so it reaches clients as ErrInvalidRequest (HTTP 400)
// rather than as a solver failure.
func classify(err error) error {
	if errors.Is(err, core.ErrInvalidConfig) {
		return fmt.Errorf("engine: %w: %w", ErrInvalidRequest, err)
	}
	return err
}

// coreConfig normalises the request into a methodology configuration,
// applying the scenario-override semantics.
func (r SolveRequest) coreConfig() (core.Config, solveMeta, error) {
	var meta solveMeta
	if r.Scenario != "" {
		if r.Arch != "" || len(r.ArchJSON) > 0 {
			return core.Config{}, meta, invalidf("scenario %q cannot be combined with arch/archJSON", r.Scenario)
		}
		sc, ok := scenario.Get(r.Scenario)
		if !ok {
			return core.Config{}, meta, invalidf("unknown scenario %q (have %v)", r.Scenario, scenario.Names())
		}
		cfg, err := sc.CoreConfig()
		if err != nil {
			return core.Config{}, meta, err
		}
		meta = solveMeta{scenario: sc.Name, topology: sc.Topology.String(), traffic: sc.Traffic.String()}
		// Non-zero request fields override the scenario's own values.
		if r.Budget > 0 {
			cfg.Budget = r.Budget
		}
		if r.Iterations > 0 {
			cfg.Iterations = r.Iterations
		}
		if len(r.Seeds) > 0 {
			cfg.Seeds = r.Seeds
		}
		if r.Horizon > 0 {
			cfg.Horizon = r.Horizon
		}
		if r.WarmUp > 0 {
			cfg.WarmUp = r.WarmUp
		}
		if r.Method != "" {
			cfg.Method = r.Method
		}
		if r.Uncertainty != nil {
			cfg.Uncertainty = r.Uncertainty
		}
		cfg.RefineStationary = r.Refine
		cfg.Workers = r.Workers
		return cfg, meta, nil
	}

	a, err := resolveArch(r.Arch, r.ArchJSON)
	if err != nil {
		return core.Config{}, meta, err
	}
	return core.Config{
		Arch:             a,
		Budget:           r.Budget,
		Iterations:       r.Iterations,
		Seeds:            r.Seeds,
		Horizon:          r.Horizon,
		WarmUp:           r.WarmUp,
		Method:           r.Method,
		Uncertainty:      r.Uncertainty,
		RefineStationary: r.Refine,
		Workers:          r.Workers,
	}, meta, nil
}

// resolveArch builds the requested architecture: an inline JSON definition,
// or a preset by name (empty = the network processor, the CLI default).
func resolveArch(name string, raw json.RawMessage) (*arch.Architecture, error) {
	if len(raw) > 0 {
		if name != "" {
			return nil, invalidf("arch %q and archJSON are mutually exclusive", name)
		}
		a, err := arch.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return nil, invalidf("archJSON: %v", err)
		}
		return a, nil
	}
	switch name {
	case "", "netproc":
		return arch.NetworkProcessor(), nil
	case "figure1":
		return arch.Figure1(), nil
	case "twobus":
		return arch.TwoBusAMBA(), nil
	default:
		return nil, invalidf("unknown architecture %q (presets: figure1, twobus, netproc)", name)
	}
}

// AllocRow is one buffer's uniform-vs-sized allocation in a SolveResult.
type AllocRow struct {
	Buffer  string `json:"buffer"`
	Uniform int    `json:"uniform"`
	Sized   int    `json:"sized"`
}

// SolveResult is the typed outcome of one methodology run — everything the
// socbuf CLI prints, in machine-readable form (the /v1/solve response body).
// Results published by the engine are immutable: coalesced requests share
// one instance.
type SolveResult struct {
	Arch     string `json:"arch"`
	Scenario string `json:"scenario,omitempty"`
	Topology string `json:"topology,omitempty"`
	Traffic  string `json:"traffic,omitempty"`
	// Method is the solver backend that produced this result (canonical
	// name; "exact" for the default path).
	Method string `json:"method"`
	Budget int    `json:"budget"`
	// Iterations is the number of methodology iterations that ran.
	Iterations int `json:"iterations"`
	// Subsystems counts the linear subsystems after buffer insertion.
	Subsystems int `json:"subsystems"`
	// UniformLoss and SizedLoss are the total simulated losses before/after
	// CTMDP sizing; Improvement is 1 − sized/uniform.
	UniformLoss int64   `json:"uniformLoss"`
	SizedLoss   int64   `json:"sizedLoss"`
	Improvement float64 `json:"improvement"`
	// BestIteration is the index of the winning iteration.
	BestIteration    int  `json:"bestIteration"`
	CapBinding       bool `json:"capBinding"`
	RandomisedStates int  `json:"randomisedStates"`
	// Alloc pairs every buffer's uniform and sized capacity, sorted by
	// buffer ID.
	Alloc []AllocRow `json:"alloc"`
	// Robust carries the chance-constraint report of a robust-backend run
	// (empirical yield, Wilson bound, budget used). Nil for other backends.
	Robust *uncertain.Report `json:"robust,omitempty"`
	// Cached marks a result served from the engine cache's result tier: an
	// identical earlier request's answer, bit for bit, with no run behind
	// it.
	Cached bool `json:"cached,omitempty"`
}

// BudgetSweepRequest fans the methodology across budgets on one architecture
// (engine analogue of `socbuf -sweep` / `experiments -sweep`). Arch/ArchJSON
// follow the SolveRequest rules. The JSON shape is the /v1/sweep/budget
// request body.
type BudgetSweepRequest struct {
	Arch     string          `json:"arch,omitempty"`
	ArchJSON json.RawMessage `json:"archJSON,omitempty"`
	Budgets  []int           `json:"budgets"`

	Iterations int     `json:"iterations,omitempty"`
	Seeds      []int64 `json:"seeds,omitempty"`
	Horizon    float64 `json:"horizon,omitempty"`
	WarmUp     float64 `json:"warmUp,omitempty"`
	// Method is the default solver backend for every point; Methods
	// optionally overrides it point by point, aligned index-for-index with
	// Budgets (empty entries inherit Method). A sweep can thus screen most
	// points analytically and refine only the Pareto knee exactly.
	Method  string   `json:"method,omitempty"`
	Methods []string `json:"methods,omitempty"`
	// Uncertainty applies one traffic-uncertainty spec to every point that
	// runs the robust backend.
	Uncertainty *uncertain.Spec `json:"uncertainty,omitempty"`
	Workers     int             `json:"workers,omitempty"`
	// UseCache shares the engine cache across all points and plans/prewarms
	// the sweep first (experiments.CachedBudgetSweepCtx).
	UseCache bool `json:"useCache,omitempty"`

	// OnRow, when non-nil, receives each point's row as it completes —
	// completion order, from worker goroutines (the callback must be safe
	// for concurrent use). socbufd streams NDJSON through it. Not part of
	// the wire shape.
	OnRow func(experiments.BudgetRow) `json:"-"`
}

// BudgetSweepResult pairs the sweep outcome with the plan that prewarmed it
// (nil when the request did not use the cache).
type BudgetSweepResult struct {
	ArchName string
	Sweep    *experiments.BudgetSweepResult
	// Plan of a cached result carries the stored counts only, no models.
	Plan *experiments.SweepPlan
	// Cached marks a sweep served from the engine cache's result tier.
	Cached bool
}

// ScenarioSweepRequest fans the methodology over registry scenarios (engine
// analogue of `experiments scenario-sweep`). Empty Scenarios means the whole
// registry. Non-zero override fields replace every scenario's own value;
// Quick additionally trims iterations/seeds/horizon to the smoke settings
// for scenarios without explicit overrides. The JSON shape is the
// /v1/sweep/scenario request body.
type ScenarioSweepRequest struct {
	Scenarios []string `json:"scenarios,omitempty"`

	Budget     int     `json:"budget,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Seeds      []int64 `json:"seeds,omitempty"`
	Horizon    float64 `json:"horizon,omitempty"`
	// Method overrides every scenario's solver backend (empty keeps each
	// scenario's own method, or the exact default).
	Method string `json:"method,omitempty"`
	// Uncertainty overrides every scenario's traffic-uncertainty spec
	// (nil keeps each scenario's own, or the robust defaults).
	Uncertainty *uncertain.Spec `json:"uncertainty,omitempty"`
	Quick       bool            `json:"quick,omitempty"`
	Workers     int             `json:"workers,omitempty"`
	UseCache    bool            `json:"useCache,omitempty"`

	// OnRow streams per-scenario rows as they complete; see
	// BudgetSweepRequest.OnRow for the contract. Not part of the wire shape.
	OnRow func(experiments.ScenarioRow) `json:"-"`
}

// ScenarioSweepResult wraps the sweep outcome.
type ScenarioSweepResult struct {
	Sweep *experiments.ScenarioSweepResult
}
