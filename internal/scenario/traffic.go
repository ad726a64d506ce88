package scenario

import (
	"fmt"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/sim"
	"socbuf/internal/trace"
)

// Traffic models.
const (
	ModelPoisson = "poisson"
	ModelOnOff   = "onoff"
)

// Traffic selects the per-flow arrival process of a scenario's evaluation
// simulations. The zero value keeps the paper's Poisson flows. The OnOff
// model preserves every flow's long-run rate — while ON the flow emits at
// Burst × its average rate and the stationary ON probability is 1/Burst —
// so Poisson and OnOff scenarios offer the same load and differ only in
// burstiness.
type Traffic struct {
	// Model is "poisson" (the default when empty) or "onoff".
	Model string
	// Burst is the ON-state rate multiplier of the OnOff model (> 1).
	Burst float64
	// MeanOn is the mean ON-sojourn duration of the OnOff model, in sim
	// time units. Default 1.
	MeanOn float64
}

// String renders a compact description for report rows.
func (t Traffic) String() string {
	switch t.Model {
	case "", ModelPoisson:
		return ModelPoisson
	case ModelOnOff:
		return fmt.Sprintf("onoff(burst=%.3g)", t.Burst)
	}
	return t.Model
}

// Validate checks model-specific parameters.
func (t Traffic) Validate() error {
	switch t.Model {
	case "", ModelPoisson:
		if t.Burst != 0 || t.MeanOn != 0 {
			return fmt.Errorf("scenario: poisson traffic takes no burst parameters")
		}
		return nil
	case ModelOnOff:
		if t.Burst <= 1 {
			return fmt.Errorf("scenario: onoff burst %v must exceed 1", t.Burst)
		}
		if t.MeanOn < 0 {
			return fmt.Errorf("scenario: negative mean ON time %v", t.MeanOn)
		}
		return nil
	}
	return fmt.Errorf("scenario: unknown traffic model %q", t.Model)
}

// SourceFactory converts the spec into the methodology's per-seed source
// factory. Poisson returns nil — the simulator's built-in default — so the
// common case adds no per-seed allocation. The OnOff factory returns fresh
// Source instances on every call (trace.OnOff is stateful; seeds run
// concurrently).
func (t Traffic) SourceFactory() (core.SourceFactory, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.Model == "" || t.Model == ModelPoisson {
		return nil, nil
	}
	spec := t
	return func(a *arch.Architecture) (map[sim.FlowKey]trace.Source, error) {
		out := make(map[sim.FlowKey]trace.Source, len(a.Flows))
		for _, f := range a.Flows {
			src, err := spec.flowSource(f.Rate)
			if err != nil {
				return nil, err
			}
			out[sim.FlowKey{From: f.From, To: f.To}] = src
		}
		return out, nil
	}, nil
}

// flowSource builds one OnOff source with long-run rate `rate`: ON emission
// rate Burst×rate, OFF→ON rate offRate/(Burst−1) so π(ON) = 1/Burst.
func (t Traffic) flowSource(rate float64) (trace.Source, error) {
	meanOn := t.MeanOn
	if meanOn == 0 {
		meanOn = 1
	}
	offRate := 1 / meanOn
	onRate := offRate / (t.Burst - 1)
	return trace.NewOnOff(t.Burst*rate, onRate, offRate)
}
