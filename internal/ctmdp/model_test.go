package ctmdp

import (
	"math"
	"testing"
)

func singleClient(lambda float64, levels int) []Client {
	return []Client{{
		BufferID:      "q",
		Lambda:        lambda,
		Levels:        levels,
		UnitsPerLevel: 1,
		LossWeight:    1,
	}}
}

func TestNewModelValidation(t *testing.T) {
	ok := singleClient(1, 2)
	cases := []struct {
		name    string
		bus     string
		mu      float64
		clients []Client
	}{
		{"empty bus", "", 1, ok},
		{"zero mu", "b", 0, ok},
		{"no clients", "b", 1, nil},
		{"empty buffer id", "b", 1, []Client{{Lambda: 1, Levels: 1, UnitsPerLevel: 1, LossWeight: 1}}},
		{"negative lambda", "b", 1, []Client{{BufferID: "q", Lambda: -1, Levels: 1, UnitsPerLevel: 1, LossWeight: 1}}},
		{"zero levels", "b", 1, []Client{{BufferID: "q", Lambda: 1, UnitsPerLevel: 1, LossWeight: 1}}},
		{"zero units", "b", 1, []Client{{BufferID: "q", Lambda: 1, Levels: 1, LossWeight: 1}}},
		{"zero weight", "b", 1, []Client{{BufferID: "q", Lambda: 1, Levels: 1, UnitsPerLevel: 1}}},
		{"bad pfull", "b", 1, []Client{{BufferID: "q", Lambda: 1, Levels: 1, UnitsPerLevel: 1, LossWeight: 1, DownstreamFullProb: 2}}},
		{"member mismatch", "b", 1, []Client{{BufferID: "q", Lambda: 1, Levels: 1, UnitsPerLevel: 1, LossWeight: 1, Members: []string{"x"}}}},
	}
	for _, c := range cases {
		if _, err := NewModel(c.bus, c.mu, c.clients); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestNewModelStateSpaceGuard(t *testing.T) {
	// uniform returns n clients at the given quantisation depth.
	uniform := func(n, levels int) []Client {
		cs := make([]Client, n)
		for i := range cs {
			cs[i] = Client{BufferID: string(rune('a' + i)), Lambda: 1, Levels: levels, UnitsPerLevel: 1, LossWeight: 1}
		}
		return cs
	}
	for _, tc := range []struct {
		name    string
		clients []Client
		states  int // 0: must be rejected
	}{
		{"3^4", uniform(4, 2), 81},
		{"81 levels", singleClient(1, 80), 81},
		{"82 levels", singleClient(1, 81), 0},
		{"2x41", append(uniform(1, 1), Client{BufferID: "z", Lambda: 1, Levels: 40, UnitsPerLevel: 1, LossWeight: 1}), 0},
		{"3^5", uniform(5, 2), 0},
		{"4^12", uniform(12, 3), 0},
		{"overflowing levels", append(uniform(1, 2), Client{BufferID: "z", Lambda: 1, Levels: math.MaxInt, UnitsPerLevel: 1, LossWeight: 1}), 0},
	} {
		m, err := NewModel("b", 1, tc.clients)
		switch {
		case tc.states == 0 && err == nil:
			t.Errorf("%s: %d states accepted, MaxStates is %d", tc.name, m.NumStates(), MaxStates)
		case tc.states > 0 && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.states > 0 && m.NumStates() != tc.states:
			t.Errorf("%s: %d states, want %d", tc.name, m.NumStates(), tc.states)
		}
	}
}

func TestModelEnumeration(t *testing.T) {
	m, err := NewModel("b", 2, []Client{
		{BufferID: "x", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "y", Lambda: 1, Levels: 1, UnitsPerLevel: 1, LossWeight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 6 {
		t.Fatalf("states = %d, want 6", m.NumStates())
	}
	// Vars: state (0,0) has 1 idle var; others have #nonzero clients.
	// States: levels (x,y): (0,0)=1, (1,0)=1, (2,0)=1, (0,1)=1, (1,1)=2, (2,1)=2 → 8.
	if m.NumVars() != 8 {
		t.Fatalf("vars = %d, want 8", m.NumVars())
	}
	// Level round trip.
	for s := 0; s < m.NumStates(); s++ {
		lx, ly := m.Level(s, 0), m.Level(s, 1)
		if back := m.stateOf([]int{lx, ly}); back != s {
			t.Fatalf("state %d decodes to (%d,%d) re-encodes to %d", s, lx, ly, back)
		}
	}
}

func TestCostRate(t *testing.T) {
	m, err := NewModel("b", 3, []Client{
		{BufferID: "x", Lambda: 2, Levels: 1, UnitsPerLevel: 1, LossWeight: 1, DownstreamFullProb: 0.5},
		{BufferID: "y", Lambda: 1, Levels: 1, UnitsPerLevel: 1, LossWeight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.stateOf([]int{1, 1}) // both full
	// Arrival losses: 2·1 + 1·2 = 4; serving x adds μ·0.5·1 = 1.5.
	if got := m.CostRate(s, 0); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("cost = %v, want 5.5", got)
	}
	if got := m.CostRate(s, 1); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("cost serving y = %v, want 4.0", got)
	}
	empty := m.stateOf([]int{0, 0})
	if got := m.CostRate(empty, -1); got != 0 {
		t.Fatalf("cost of empty idle = %v", got)
	}
}

func TestOccupancyUnits(t *testing.T) {
	m, err := NewModel("b", 1, []Client{
		{BufferID: "x", Lambda: 1, Levels: 2, UnitsPerLevel: 10, LossWeight: 1},
		{BufferID: "y", Lambda: 1, Levels: 1, UnitsPerLevel: 4, LossWeight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.stateOf([]int{2, 1})
	if got := m.OccupancyUnits(s); got != 24 {
		t.Fatalf("occupancy = %v, want 24", got)
	}
}

func TestTransitions(t *testing.T) {
	m, err := NewModel("b", 5, singleClient(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	// State 1, serving: arrival to 2 at rate 2, service to 0 at rate 5.
	got := map[int]float64{}
	m.transitions(1, 0, func(tgt int, rate float64) { got[tgt] += rate })
	if got[2] != 2 || got[0] != 5 || len(got) != 2 {
		t.Fatalf("transitions from (1,serve) = %v", got)
	}
	// Full state: arrival is a self-loop (omitted).
	got = map[int]float64{}
	m.transitions(2, 0, func(tgt int, rate float64) { got[tgt] += rate })
	if len(got) != 1 || got[1] != 5 {
		t.Fatalf("transitions from (2,serve) = %v", got)
	}
	// Empty, idle: only the arrival.
	got = map[int]float64{}
	m.transitions(0, -1, func(tgt int, rate float64) { got[tgt] += rate })
	if len(got) != 1 || got[1] != 2 {
		t.Fatalf("transitions from (0,idle) = %v", got)
	}
}

func TestAggregateClients(t *testing.T) {
	clients := []Client{
		{BufferID: "hot", Lambda: 5, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "warm", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "cold1", Lambda: 0.5, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "cold2", Lambda: 0.3, Levels: 1, UnitsPerLevel: 2, LossWeight: 3},
	}
	out, err := AggregateClients(clients, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d clients, want 3", len(out))
	}
	var agg *Client
	for i := range out {
		if len(out[i].Members) > 0 {
			agg = &out[i]
		}
	}
	if agg == nil {
		t.Fatal("no aggregate produced")
	}
	if math.Abs(agg.Lambda-0.8) > 1e-12 {
		t.Fatalf("aggregate lambda = %v, want 0.8", agg.Lambda)
	}
	if len(agg.Members) != 2 {
		t.Fatalf("aggregate members = %v", agg.Members)
	}
	if agg.Levels != 2 || agg.UnitsPerLevel != 2 || agg.LossWeight != 3 {
		t.Fatalf("aggregate maxima wrong: %+v", agg)
	}
	// Hot and warm survive untouched.
	names := map[string]bool{}
	for _, c := range out {
		names[c.BufferID] = true
	}
	if !names["hot"] || !names["warm"] {
		t.Fatalf("hot/warm clients lost: %v", names)
	}
}

func TestAggregateClientsNoop(t *testing.T) {
	clients := singleClient(1, 2)
	out, err := AggregateClients(clients, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].BufferID != "q" {
		t.Fatalf("noop aggregation changed clients: %+v", out)
	}
}

func TestAggregateClientsBadMax(t *testing.T) {
	if _, err := AggregateClients(singleClient(1, 1), 0); err == nil {
		t.Fatal("maxClients 0 accepted")
	}
}
