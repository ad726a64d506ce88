package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"socbuf/internal/placement"
	"socbuf/internal/solver"
)

// quickPlacement is a sub-second placement request on the two-bus AMBA
// scenario (one bridge, four options) shared by the engine tests.
func quickPlacement() PlacementRequest {
	return PlacementRequest{
		Scenario:   "twobus",
		Method:     solver.MethodAnalytic,
		Iterations: 1,
		Seeds:      []int64{1},
		Horizon:    400,
		WarmUp:     50,
	}
}

func TestEnginePlacement(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	res, err := eng.Placement(context.Background(), quickPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "twobus" || res.Topology == "" {
		t.Errorf("scenario meta missing: %+v", res)
	}
	if res.Method != solver.MethodAnalytic {
		t.Errorf("method %q", res.Method)
	}
	if res.Candidates != 1 || len(res.Frontier) == 0 {
		t.Errorf("candidates %d, frontier %d", res.Candidates, len(res.Frontier))
	}
	if len(res.Types) != len(placement.DefaultCatalogue()) {
		t.Errorf("empty request catalogue not normalised to the default: %+v", res.Types)
	}
	if res.Cached {
		t.Error("fresh run marked cached")
	}
	s := eng.Stats()
	if s.PlacementRuns != 1 || s.Requests != 1 {
		t.Errorf("stats %+v, want 1 placement run / 1 request", s)
	}
	if s.Backends[solver.MethodAnalytic].Solves == 0 {
		t.Errorf("no analytic backend runs attributed: %+v", s.Backends)
	}
}

// TestEnginePlacementCacheRoundTrip: with UseCache a repeat request is a
// placement-tier lookup — no new run, no evaluation streaming, identical
// payload with the cached flag set.
func TestEnginePlacementCacheRoundTrip(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	req := quickPlacement()
	req.UseCache = true
	first, err := eng.Placement(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	req.OnEval = func(placement.Point) { evals++ }
	second, err := eng.Placement(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second run not served from the placement tier")
	}
	if evals != 0 {
		t.Errorf("cached hit streamed %d evaluations, want 0", evals)
	}
	second.Cached = false
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached result differs:\n%+v\nvs\n%+v", first, second)
	}
	s := eng.Stats()
	if s.PlacementRuns != 1 {
		t.Errorf("placement runs %d, want 1 (second request was a hit)", s.PlacementRuns)
	}
	if s.Cache.PlacementHits != 1 || s.Cache.PlacementEntries != 1 {
		t.Errorf("cache stats %+v, want 1 placement hit / 1 entry", s.Cache)
	}

	// A changed identity knob misses and runs fresh.
	req.OnEval = nil
	req.RefineTop = 5
	third, err := eng.Placement(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different refineTop served from the cache")
	}
}

func TestEnginePlacementValidation(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	cases := []struct {
		name string
		req  PlacementRequest
	}{
		{"unknown scenario", PlacementRequest{Scenario: "no-such"}},
		{"missing budget", PlacementRequest{Arch: "twobus"}},
		{"bad method", PlacementRequest{Scenario: "twobus", Method: "bogus"}},
		{"scenario+arch", PlacementRequest{Scenario: "twobus", Arch: "twobus"}},
		{"bad catalogue", PlacementRequest{Scenario: "twobus", Types: []placement.BufferType{{Name: "", Cost: 1}}}},
		{"negative latency weight", PlacementRequest{Scenario: "twobus", LatencyWeight: -1}},
		{"negative cost budget", PlacementRequest{Scenario: "twobus", CostBudget: -3}},
	}
	for _, c := range cases {
		if _, err := eng.Placement(context.Background(), c.req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: error %v, want ErrInvalidRequest", c.name, err)
		}
	}
}

// TestEnginePlacementScenarioOverride: non-zero request fields override the
// scenario's own values, and the override is part of the cache identity.
func TestEnginePlacementScenarioOverride(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	req := quickPlacement()
	req.Budget = 36
	res, err := eng.Placement(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != 36 {
		t.Errorf("budget %d, want the 36 override", res.Budget)
	}
}

// TestEnginePlacementMatchesDirectPath: the engine adds admission, caching
// and stats around placement.Place but must not change its answer.
func TestEnginePlacementMatchesDirectPath(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	engineRes, err := eng.Placement(context.Background(), quickPlacement())
	if err != nil {
		t.Fatal(err)
	}

	sr := SolveRequest{Scenario: "twobus"}
	cfg, _, err := sr.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := placement.Place(context.Background(), placement.Config{
		Arch:       cfg.Arch,
		Budget:     cfg.Budget,
		Method:     solver.MethodAnalytic,
		Iterations: 1,
		Seeds:      []int64{1},
		Horizon:    400,
		WarmUp:     50,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(engineRes.Result, *direct) {
		t.Errorf("engine path diverges from direct placement.Place:\n%+v\nvs\n%+v", engineRes.Result, *direct)
	}
}
