// Package scenario turns the reproduction into a workload-diverse
// evaluation harness: a Scenario bundles an architecture (a preset or a
// seeded parametric topology generator), a per-flow traffic model, and the
// budget/solver configuration of one methodology run. Scenarios are
// first-class values — they validate, round-trip through JSON, and live in
// a process-wide registry the CLIs and the experiments sweep engine fan
// out over.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/solver"
	"socbuf/internal/uncertain"
)

// Scenario is one named evaluation configuration.
type Scenario struct {
	// Name identifies the scenario in the registry and in report rows.
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// Topology builds the architecture.
	Topology Topology `json:"topology"`
	// Traffic selects the per-flow arrival process of the evaluation
	// simulations. Zero value = Poisson.
	Traffic Traffic `json:"traffic,omitempty"`
	// Budget is the total buffer space in units. Must cover at least one
	// unit per buffer of the buffered architecture.
	Budget int `json:"budget"`
	// Solver / evaluation knobs. Zero values inherit the core defaults (or
	// the sweep's Options, which take precedence over core defaults).
	Iterations int     `json:"iterations,omitempty"`
	Seeds      []int64 `json:"seeds,omitempty"`
	Horizon    float64 `json:"horizon,omitempty"`
	WarmUp     float64 `json:"warmUp,omitempty"`
	// Method pins the scenario to a solver backend ("exact" | "analytic" |
	// "hybrid" | "robust"); empty inherits the sweep's (or the exact)
	// default. Name validation happens at dispatch (internal/solver), where
	// the unknown-method message is uniform across every entry point.
	Method string `json:"method,omitempty"`
	// Uncertainty attaches a traffic-uncertainty spec for the robust
	// backend (nil = that backend's defaults; other backends carry it
	// untouched). It round-trips with the scenario.
	Uncertainty *uncertain.Spec `json:"uncertainty,omitempty"`
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
		if _, err := solver.Resolve(s.Method); err != nil {
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

// ReadJSON decodes and validates one scenario.
func ReadJSON(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: decoding JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// WriteJSON encodes the scenario (indented, stable field order).
func (s Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
