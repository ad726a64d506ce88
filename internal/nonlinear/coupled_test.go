package nonlinear

import (
	"math"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/graph"
	"socbuf/internal/linalg"
	"socbuf/internal/queueing"
)

func twoBusSystem(t *testing.T, lambda1, lambda2, mu float64, levels int) *CoupledSystem {
	t.Helper()
	cs, err := NewCoupledSystem([]BusSpec{
		{ID: "A", Mu: mu, Clients: []ClientSpec{
			{ID: "a1", Lambda: lambda1, Levels: levels, Gates: []int{1}},
		}},
		{ID: "B", Mu: mu, Clients: []ClientSpec{
			{ID: "b1", Lambda: lambda2, Levels: levels, Gates: []int{0}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestNewCoupledSystemValidation(t *testing.T) {
	ok := ClientSpec{ID: "c", Lambda: 1, Levels: 1, Gates: []int{1}}
	cases := []struct {
		name  string
		buses []BusSpec
	}{
		{"one bus", []BusSpec{{ID: "A", Mu: 1, Clients: []ClientSpec{ok}}}},
		{"zero mu", []BusSpec{
			{ID: "A", Mu: 0, Clients: []ClientSpec{ok}},
			{ID: "B", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1}}},
		}},
		{"no clients", []BusSpec{
			{ID: "A", Mu: 1},
			{ID: "B", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1}}},
		}},
		{"negative lambda", []BusSpec{
			{ID: "A", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: -1, Levels: 1}}},
			{ID: "B", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1}}},
		}},
		{"zero levels", []BusSpec{
			{ID: "A", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1}}},
			{ID: "B", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1}}},
		}},
		{"self gate", []BusSpec{
			{ID: "A", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1, Gates: []int{0}}}},
			{ID: "B", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1}}},
		}},
		{"gate out of range", []BusSpec{
			{ID: "A", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1, Gates: []int{7}}}},
			{ID: "B", Mu: 1, Clients: []ClientSpec{{ID: "c", Lambda: 1, Levels: 1}}},
		}},
	}
	for _, c := range cases {
		if _, err := NewCoupledSystem(c.buses); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestResidualVectorLength(t *testing.T) {
	cs := twoBusSystem(t, 1, 1, 2, 2)
	if _, err := cs.Residual(make([]float64, 3)); err == nil {
		t.Fatal("wrong-length vector accepted")
	}
}

func TestPicardConvergesLightLoad(t *testing.T) {
	// Lightly loaded coupled pair: Picard should converge comfortably.
	cs := twoBusSystem(t, 0.3, 0.2, 5, 2)
	v, diag, err := cs.Picard(PicardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Converged {
		t.Fatalf("Picard failed on light load: %+v", diag)
	}
	res, err := cs.Residual(v)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.NormInf(res) > 1e-8 {
		t.Fatalf("claimed convergence but residual = %v", linalg.NormInf(res))
	}
	// Probabilities are non-negative and each bus sums to 1.
	var sumA float64
	for s := 0; s < cs.states[0]; s++ {
		p := v[cs.offset[0]+s]
		if p < -1e-9 {
			t.Fatalf("negative probability %v", p)
		}
		sumA += p
	}
	if math.Abs(sumA-1) > 1e-8 {
		t.Fatalf("bus A mass %v", sumA)
	}
}

func TestPicardSolutionSanity(t *testing.T) {
	// With gates nearly always open (the other bus mostly idle), each bus is
	// close to an M/M/1/K with a slightly reduced service rate; the loss rate
	// must be within a factor-ish of that analytic anchor.
	cs := twoBusSystem(t, 0.5, 0.01, 4, 3)
	v, diag, err := cs.Picard(PicardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Converged {
		t.Fatalf("no convergence: %+v", diag)
	}
	availB := cs.avail(v, 1)
	q, err := queueing.NewMM1K(0.5, 4*availB, 3)
	if err != nil {
		t.Fatal(err)
	}
	loss := cs.LossRate(v)
	anchor := q.LossRate() + 0.01 // bus B's own tiny loss bound
	if loss > anchor*3+1e-6 || loss < 0 {
		t.Fatalf("coupled loss %v vs anchor %v", loss, anchor)
	}
}

func TestCoupledHeavyLoadDegenerates(t *testing.T) {
	// Heavily loaded symmetric coupling: the un-buffered bridges strangle
	// each other (each bus is almost never free, so cross transfers almost
	// never move) and the analysis converges to a near-total-loss solution.
	// This is §4's point that buffered bridges are what make efficient
	// bus-to-bus communication possible.
	cs := twoBusSystem(t, 6, 6, 2, 3)
	v, diag, err := cs.Picard(PicardOptions{MaxIters: 300, Damping: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Converged {
		t.Fatalf("damped Picard should converge: %+v", diag)
	}
	loss := cs.LossRate(v)
	if loss < 0.8*12 {
		t.Fatalf("expected near-total loss (offered 12), got %v", loss)
	}
}

func TestDiagnosticsHistoryRecorded(t *testing.T) {
	cs := twoBusSystem(t, 1, 1, 3, 2)
	_, diag, err := cs.Picard(PicardOptions{MaxIters: 10, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.History) != diag.Iterations {
		t.Fatalf("history length %d vs iterations %d", len(diag.History), diag.Iterations)
	}
	if diag.Reason == "" {
		t.Fatal("empty reason")
	}
}

func TestFromArchitectureFigure1(t *testing.T) {
	a := arch.Figure1()
	groups, err := graph.CoupledGroups(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	cs, err := FromArchitecture(a, groups[0].Buses, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Buses) != 3 {
		t.Fatalf("coupled buses = %d, want 3 (b,f,g)", len(cs.Buses))
	}
	// p2→p5 crosses two bridges: its client must have two gates; that term
	// is the paper's "an equation may have more than one quadratic term".
	foundTwoGate := false
	for _, b := range cs.Buses {
		for _, c := range b.Clients {
			if len(c.Gates) == 2 {
				foundTwoGate = true
			}
		}
	}
	if !foundTwoGate {
		t.Fatal("no two-gate client found in Figure 1 coupled system")
	}
	// The system solves under damping (analysis variant) — diagnostics only.
	_, diag, err := cs.Picard(PicardOptions{MaxIters: 300, Damping: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestFromArchitectureErrors(t *testing.T) {
	a := arch.Figure1()
	if _, err := FromArchitecture(a, []string{"b", "f", "g"}, 0); err == nil {
		t.Fatal("levels 0 accepted")
	}
	if _, err := FromArchitecture(a, []string{"nope"}, 2); err == nil {
		t.Fatal("unknown bus accepted")
	}
	// A group that cuts a route in half must be rejected: {b,f} without g
	// splits p2→p5.
	if _, err := FromArchitecture(a, []string{"b", "f"}, 2); err == nil {
		t.Fatal("partially-crossing flow accepted")
	}
}

func TestInertBusClient(t *testing.T) {
	// A group bus sourcing no traffic gets an inert client.
	a := &arch.Architecture{
		Name: "relay",
		Buses: []arch.Bus{
			{ID: "s", ServiceRate: 2},
			{ID: "r", ServiceRate: 2},
		},
		Processors: []arch.Processor{
			{ID: "src", Buses: []string{"s"}},
			{ID: "dst", Buses: []string{"r"}},
		},
		Bridges: []arch.Bridge{{ID: "br", BusA: "s", BusB: "r"}},
		Flows:   []arch.Flow{{From: "src", To: "dst", Rate: 0.5}},
	}
	cs, err := FromArchitecture(a, []string{"s", "r"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Bus r sources nothing → inert client.
	for _, b := range cs.Buses {
		if b.ID == "r" {
			if len(b.Clients) != 1 || b.Clients[0].Lambda != 0 {
				t.Fatalf("relay bus clients = %+v", b.Clients)
			}
		}
	}
	_, diag, err := cs.Picard(PicardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Converged {
		t.Fatalf("relay system should converge: %+v", diag)
	}
}
