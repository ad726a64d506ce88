// Package scenario turns the reproduction into a workload-diverse
// evaluation harness: a Scenario bundles an architecture (a preset or a
// seeded parametric topology generator), a per-flow traffic model, and the
// budget/solver configuration of one methodology run. Scenarios are
// first-class values that validate themselves; a fixed table of built-ins
// (builtin.go) is the registry the CLIs, the service and the experiments
// sweep engine fan out over.
package scenario

import (
	"fmt"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/solver"
	"socbuf/internal/uncertain"
)

// Scenario is one named evaluation configuration.
type Scenario struct {
	// Name identifies the scenario in the registry and in report rows.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Topology builds the architecture.
	Topology Topology
	// Traffic selects the per-flow arrival process of the evaluation
	// simulations. Zero value = Poisson.
	Traffic Traffic
	// Budget is the total buffer space in units. Must cover at least one
	// unit per buffer of the buffered architecture.
	Budget int
	// Solver / evaluation knobs. Zero values inherit the core defaults (or
	// the sweep's Options, which take precedence over core defaults).
	Iterations int
	Seeds      []int64
	Horizon    float64
	WarmUp     float64
	// Method pins the scenario to a solver backend ("exact" | "analytic" |
	// "hybrid" | "robust"); empty inherits the sweep's (or the exact)
	// default. Name validation happens at dispatch (internal/solver), where
	// the unknown-method message is uniform across every entry point.
	Method string
	// Uncertainty attaches a traffic-uncertainty spec for the robust
	// backend (nil = that backend's defaults; other backends carry it
	// untouched).
	Uncertainty *uncertain.Spec
}

// Validate checks the scenario end to end: fields, traffic parameters, and
// that the topology builds an architecture that splits into linear
// subsystems with enough budget for one unit per buffer.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.Budget <= 0 {
		return fmt.Errorf("scenario %q: budget %d must be positive", s.Name, s.Budget)
	}
	if err := s.Traffic.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	a, err := s.Build()
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	buffered := a.Clone()
	buffered.InsertBridgeBuffers()
	if n := len(buffered.BufferIDs()); s.Budget < n {
		return fmt.Errorf("scenario %q: budget %d below one unit per buffer (%d buffers)",
			s.Name, s.Budget, n)
	}
	if s.Iterations < 0 {
		return fmt.Errorf("scenario %q: negative iterations %d", s.Name, s.Iterations)
	}
	if s.Horizon < 0 || s.WarmUp < 0 {
		return fmt.Errorf("scenario %q: negative horizon/warm-up", s.Name)
	}
	if s.WarmUp > 0 && s.Horizon == 0 {
		return fmt.Errorf("scenario %q: warm-up %v set without a horizon", s.Name, s.WarmUp)
	}
	if s.Horizon > 0 && s.WarmUp >= s.Horizon {
		return fmt.Errorf("scenario %q: warm-up %v outside [0, horizon %v)", s.Name, s.WarmUp, s.Horizon)
	}
	if s.Method != "" {
		if err := solver.CheckMethod(s.Method); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Uncertainty != nil {
		if err := s.Uncertainty.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// Build constructs the scenario's architecture (bridges un-buffered; the
// methodology inserts buffers on its own clone).
func (s Scenario) Build() (*arch.Architecture, error) {
	return s.Topology.Build()
}

// CoreConfig assembles the methodology configuration: built architecture,
// budget, traffic source factory, and the scenario's solver knobs. Zero
// knobs stay zero so core.Run's defaults (or a sweep's Options) apply.
func (s Scenario) CoreConfig() (core.Config, error) {
	a, err := s.Build()
	if err != nil {
		return core.Config{}, err
	}
	factory, err := s.Traffic.SourceFactory()
	if err != nil {
		return core.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return core.Config{
		Arch:        a,
		Budget:      s.Budget,
		Iterations:  s.Iterations,
		Seeds:       s.Seeds,
		Horizon:     s.Horizon,
		WarmUp:      s.WarmUp,
		Traffic:     factory,
		Method:      s.Method,
		Uncertainty: s.Uncertainty,
	}, nil
}
