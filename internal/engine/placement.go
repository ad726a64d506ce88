package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"slices"

	"socbuf/internal/placement"
	"socbuf/internal/solvecache"
	"socbuf/internal/solver"
)

// PlacementRequest asks for one buffer-placement run: which bridges get
// decoupling buffers (and of which catalogue type), which are bypassed, and
// the sizing outcome of the winning placements. Architecture selection
// follows the SolveRequest rules (Scenario | Arch | ArchJSON, with non-zero
// request fields overriding a scenario's own values). The JSON shape is the
// /v1/placement request body.
type PlacementRequest struct {
	Scenario string          `json:"scenario,omitempty"`
	Arch     string          `json:"arch,omitempty"`
	ArchJSON json.RawMessage `json:"archJSON,omitempty"`

	Budget     int     `json:"budget,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Seeds      []int64 `json:"seeds,omitempty"`
	Horizon    float64 `json:"horizon,omitempty"`
	WarmUp     float64 `json:"warmUp,omitempty"`
	// Method selects the refinement backend for the frontier survivors
	// ("exact" | "analytic" | "hybrid"; empty inherits the scenario's own
	// method, or the exact default). "analytic" stops at the screening
	// evaluations.
	Method string `json:"method,omitempty"`
	// Types is the insertion catalogue (empty = placement.DefaultCatalogue).
	// The CLI's -buffer-types flag parses into this field.
	Types []placement.BufferType `json:"types,omitempty"`
	// CostBudget caps the summed insertion cost (0 = unbounded).
	CostBudget float64 `json:"costBudget,omitempty"`
	// LatencyWeight trades screened latency against screened loss in the DP
	// objective (0 = the 0.1 default).
	LatencyWeight float64 `json:"latencyWeight,omitempty"`
	// RefineTop bounds how many screened survivors the refinement backend
	// re-evaluates (0 = the default 3).
	RefineTop int  `json:"refineTop,omitempty"`
	Workers   int  `json:"workers,omitempty"`
	UseCache  bool `json:"useCache,omitempty"`

	// OnEval, when non-nil, streams every per-placement solver evaluation as
	// it completes (completion order, from worker goroutines — must be safe
	// for concurrent use). A placement served from the cache performed no
	// evaluations, so OnEval never fires on a cache hit. Not part of the wire
	// shape.
	OnEval func(placement.Point) `json:"-"`
}

// Fingerprint is the placement request's normalised content fingerprint (see
// SolveRequest.Fingerprint): default preset made explicit, worker bound
// dropped, streaming hook excluded by construction. It is a request-level
// routing key, distinct from the cache-tier placementKey (which fingerprints
// the fully normalised placement.Config).
func (r PlacementRequest) Fingerprint() string {
	k := r
	if k.Scenario == "" && len(k.ArchJSON) == 0 && k.Arch == "" {
		k.Arch = "netproc"
	}
	k.Workers = 0
	return hashRequest("placement", k, &r)
}

// placementConfig normalises the request into a placement.Config, reusing
// the SolveRequest scenario-override semantics for every shared knob, then
// applying the placement defaults so equivalent requests (explicit default
// vs. zero value) normalise to one fingerprint.
func (r PlacementRequest) placementConfig() (placement.Config, solveMeta, error) {
	sr := SolveRequest{
		Scenario: r.Scenario, Arch: r.Arch, ArchJSON: r.ArchJSON,
		Budget: r.Budget, Iterations: r.Iterations, Seeds: r.Seeds,
		Horizon: r.Horizon, WarmUp: r.WarmUp, Method: r.Method,
		Workers: r.Workers,
	}
	cfg, meta, err := sr.coreConfig()
	if err != nil {
		return placement.Config{}, meta, err
	}
	if err := validMethod(cfg.Method); err != nil {
		return placement.Config{}, meta, err
	}
	if cfg.Budget <= 0 {
		return placement.Config{}, meta, invalidf("budget %d must be positive", cfg.Budget)
	}
	if len(r.Types) > 0 {
		if err := placement.ValidateCatalogue(r.Types); err != nil {
			return placement.Config{}, meta, invalidf("%v", err)
		}
	}
	pc := placement.Config{
		Arch:          cfg.Arch,
		Types:         r.Types,
		Budget:        cfg.Budget,
		CostBudget:    r.CostBudget,
		LatencyWeight: r.LatencyWeight,
		Method:        solver.Canonical(cfg.Method),
		RefineTop:     r.RefineTop,
		Iterations:    cfg.Iterations,
		Seeds:         cfg.Seeds,
		Horizon:       cfg.Horizon,
		WarmUp:        cfg.WarmUp,
		Workers:       cfg.Workers,
	}
	return pc.WithDefaults(), meta, nil
}

// placementKey fingerprints a normalised placement config: the original
// architecture's canonical JSON plus every identity knob, under the
// placement backend tag (DESIGN.md §7 extends the §4 contract).
func placementKey(pc placement.Config) (solvecache.Key, error) {
	var buf bytes.Buffer
	if err := pc.Arch.WriteJSON(&buf); err != nil {
		return solvecache.Key{}, err
	}
	meta := solvecache.PlacementMeta{
		Budget:        pc.Budget,
		CostBudget:    pc.CostBudget,
		LatencyWeight: pc.LatencyWeight,
		Method:        pc.Method,
		RefineTop:     pc.RefineTop,
		Iterations:    pc.Iterations,
		Seeds:         pc.Seeds,
		Horizon:       pc.Horizon,
		WarmUp:        pc.WarmUp,
	}
	for _, t := range pc.Types {
		meta.TypeNames = append(meta.TypeNames, t.Name)
		meta.TypeCosts = append(meta.TypeCosts, t.Cost)
		meta.TypeDelays = append(meta.TypeDelays, t.Delay)
	}
	return solvecache.PlacementFingerprint(buf.Bytes(), meta), nil
}

// cachedPlacement decodes a placement-tier payload strictly and accepts it
// only when it describes the normalised request pc: the same budget,
// catalogue, cost budget and latency weight, a non-empty frontier, and a
// chosen point on that frontier. Anything else is a miss, so a peer's
// payload can cost a recompute but never change an answer.
func cachedPlacement(b []byte, pc placement.Config) (*PlacementResult, bool) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	out := &PlacementResult{}
	if dec.Decode(out) != nil {
		return nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false // trailing data
	}
	if out.Budget != pc.Budget || !slices.Equal(out.Types, pc.Types) ||
		out.CostBudget != pc.CostBudget || out.LatencyWeight != pc.LatencyWeight {
		return nil, false
	}
	onFrontier := slices.ContainsFunc(out.Frontier, func(p placement.Point) bool {
		return reflect.DeepEqual(p, out.Chosen)
	})
	return out, onFrontier
}

// PlacementResult is the typed outcome of one placement run (the
// /v1/placement response body): the scenario identity it ran under, the
// normalised catalogue and knobs, and the embedded placement.Result
// (frontier, chosen placement, DP counters).
type PlacementResult struct {
	Scenario string `json:"scenario,omitempty"`
	Topology string `json:"topology,omitempty"`
	Traffic  string `json:"traffic,omitempty"`
	Budget   int    `json:"budget"`
	// Types is the catalogue the run actually used (the default one when the
	// request left it empty).
	Types         []placement.BufferType `json:"types"`
	CostBudget    float64                `json:"costBudget,omitempty"`
	LatencyWeight float64                `json:"latencyWeight"`
	// Cached marks results served verbatim from the engine cache's placement
	// tier — no solver evaluations ran (and none were streamed).
	Cached bool `json:"cached,omitempty"`
	placement.Result
}

// Placement runs one buffer-placement request: enumerate, prune and screen
// placements with the DP, evaluate the frontier analytically, refine the
// best survivors with the request's backend. With UseCache the whole typed
// result is cached under its placement fingerprint — a repeat request is a
// lookup, not a re-run (placement runs are minutes-scale on big topologies;
// the inner per-placement solver runs additionally share the engine cache's
// sizing tiers).
func (e *Engine) Placement(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
	e.requests.Add(1)
	rctx, end, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer end()

	pc, meta, err := req.placementConfig()
	if err != nil {
		return nil, err
	}
	pc.Workers = e.requestWorkers(pc.Workers)
	pc.OnEval = req.OnEval
	pc.RunObserver = e.sweepObserver()

	var key solvecache.Key
	var cache *solvecache.Cache
	if req.UseCache {
		cache = e.Cache()
		pc.Cache = cache
		if key, err = placementKey(pc); err != nil {
			return nil, err
		}
		if b, ok := cache.LookupPlacement(key); ok {
			if out, ok := cachedPlacement(b, pc); ok {
				out.Cached = true
				return out, nil
			}
			// A payload that does not describe this request (a peer's
			// poisoned write) falls through to a fresh run that overwrites
			// it.
		}
	}

	e.placeRuns.Add(1)
	res, err := placement.Place(rctx, pc)
	if err != nil {
		return nil, classify(err)
	}
	out := &PlacementResult{
		Scenario:      meta.scenario,
		Topology:      meta.topology,
		Traffic:       meta.traffic,
		Budget:        pc.Budget,
		Types:         pc.Types,
		CostBudget:    pc.CostBudget,
		LatencyWeight: pc.LatencyWeight,
		Result:        *res,
	}
	if cache != nil {
		if b, err := json.Marshal(out); err == nil {
			cache.PutPlacement(key, b)
		}
	}
	return out, nil
}
