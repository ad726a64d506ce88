package solvecache

import (
	"encoding/json"
	"math"
	"testing"

	"socbuf/internal/ctmdp"
)

// FuzzExactPayload drives the remote exact-payload decoder with arbitrary
// bytes. A decode either fails, which the tier counts as a remote miss, or
// yields a payload whose numbers are probabilities: occupation measure
// entries in [0, 1], state probabilities and each client's occupancy
// distribution in [0, 1] summing to 1, and every visited policy row in
// [0, 1]. Boundary updates read those as probabilities, so an adopted
// payload can never fail a later solve.
func FuzzExactPayload(f *testing.F) {
	m, err := ctmdp.NewModel("sub", 4, []ctmdp.Client{
		{BufferID: "c0", Lambda: 0.4, Levels: 2, UnitsPerLevel: 2, LossWeight: 2, DownstreamFullProb: 0.2},
		{BufferID: "c1", Lambda: 1.2, Levels: 2, UnitsPerLevel: 3, LossWeight: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	sol, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
	if err != nil {
		f.Fatal(err)
	}
	genuine := exactPayload{
		ServiceRate: m.ServiceRate,
		Clients:     m.Clients,
		X:           sol.PerModel[0].X,
		StateProb:   sol.PerModel[0].StateProb,
		LossRate:    sol.PerModel[0].LossRate,
		ActionProb:  sol.PerModel[0].Policy.ActionProb,
		Visited:     sol.PerModel[0].Policy.Visited,
	}
	seed := func(edit func(p *exactPayload)) {
		p := genuine
		p.X = append([]float64(nil), genuine.X...)
		p.StateProb = append([]float64(nil), genuine.StateProb...)
		edit(&p)
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(*exactPayload) {})
	seed(func(p *exactPayload) { p.StateProb[0] = 3 })
	seed(func(p *exactPayload) { p.X[0] = -0.5 })
	seed(func(p *exactPayload) { p.StateProb[1] += 0.25 })
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	const tol = payloadValueTol
	f.Fuzz(func(t *testing.T, data []byte) {
		var e entry
		if json.Unmarshal(data, &e) != nil {
			return // a remote miss
		}
		inRange := func(what string, v float64) {
			if !(v >= -tol && v <= 1+tol) {
				t.Fatalf("adopted payload has %s %g outside [0, 1]", what, v)
			}
		}
		sumsToOne := func(what string, sum float64) {
			if math.Abs(sum-1) > payloadSumTol {
				t.Fatalf("adopted payload's %s sums to %g", what, sum)
			}
		}
		for _, v := range e.sol.X {
			inRange("occupation measure entry", v)
		}
		var mass float64
		for _, v := range e.sol.StateProb {
			inRange("state probability", v)
			mass += v
		}
		sumsToOne("state distribution", mass)
		for s, row := range e.sol.Policy.ActionProb {
			if e.sol.Policy.Visited[s] {
				for _, v := range row {
					inRange("policy entry", v)
				}
			}
		}
		for c := range e.model.Clients {
			mass = 0
			for _, v := range e.sol.OccupancyDistribution(c) {
				inRange("occupancy probability", v)
				mass += v
			}
			sumsToOne("occupancy distribution", mass)
		}
	})
}
