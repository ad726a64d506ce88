package policy_test

import (
	"context"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/engine"
)

// TestSizersProduceValidAllocations: the two allocation baselines the
// package doc names — the constant sizing (arch.UniformAllocation) and the
// traffic-proportional division (arch.ProportionalAllocation) — each give a
// valid allocation that spends exactly the budget on the buffered two-bus
// system.
func TestSizersProduceValidAllocations(t *testing.T) {
	a := arch.TwoBusAMBA()
	a.InsertBridgeBuffers()
	sizers := []struct {
		name     string
		allocate func(*arch.Architecture, int) (arch.Allocation, error)
	}{
		{"constant", arch.UniformAllocation},
		{"proportional", arch.ProportionalAllocation},
	}
	for _, s := range sizers {
		al, err := s.allocate(a, 24)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if al.Total() != 24 {
			t.Fatalf("%s: total %d", s.name, al.Total())
		}
		if err := al.Validate(a, 24); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

// TestSizerNames pins the labels the two allocation baselines run under in
// a simulation (socsim -policy, /v1/simulate): an empty or "constant"
// policy is labelled "constant", and "proportional" keeps its name.
func TestSizerNames(t *testing.T) {
	e := engine.New(engine.Config{})
	defer e.Close()
	for _, c := range []struct{ policy, want string }{
		{"", "constant"},
		{"constant", "constant"},
		{"proportional", "proportional"},
	} {
		got, err := e.Simulate(context.Background(), engine.SimulateRequest{
			Arch: "twobus", Budget: 24, Policy: c.policy, Horizon: 200, Seed: 1,
		})
		if err != nil {
			t.Fatalf("policy %q: %v", c.policy, err)
		}
		if got.Policy != c.want {
			t.Fatalf("policy %q labelled %q, want %q; experiment labels depend on it", c.policy, got.Policy, c.want)
		}
	}
}
