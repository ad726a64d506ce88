package solvecache

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/ctmdp"
	"socbuf/internal/uncertain"
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

// fixedStore is a remote store that answers every key with one payload and
// drops every write.
type fixedStore []byte

func (s fixedStore) Get(context.Context, Key) ([]byte, bool) { return append([]byte(nil), s...), true }
func (fixedStore) Put(context.Context, Key, []byte)          {}

// FuzzRemotePayload serves arbitrary bytes as the remote payload of every
// key, then looks one key up in each remote tier: an exact solve, an
// analytic and a robust sizing, and a placement. Each lookup is a remote
// miss or adopts a payload its tier's validity rule accepts, and none
// panics: an adopted exact entry matches the model and decodes again, an
// adopted analytic or robust sizing is one of the architecture and budget
// looked up, and an adopted placement payload is non-empty.
func FuzzRemotePayload(f *testing.F) {
	m, err := ctmdp.NewModel("bus", 4, []ctmdp.Client{
		{BufferID: "a", Lambda: 1.2, Levels: 2, UnitsPerLevel: 3, LossWeight: 1},
		{BufferID: "b", Lambda: 0.4, Levels: 2, UnitsPerLevel: 2, LossWeight: 2, DownstreamFullProb: 0.2},
	})
	if err != nil {
		f.Fatal(err)
	}
	a := arch.TwoBusAMBA()
	a.InsertBridgeBuffers()
	const budget = 24
	alloc, err := arch.UniformAllocation(a, budget)
	if err != nil {
		f.Fatal(err)
	}
	ak := AnalyticFingerprint([]byte("arch"), budget, 3)
	rk := RobustFingerprint([]byte("arch"), []byte("spec"), budget, 3)
	pk := PlacementFingerprint([]byte("arch"), PlacementMeta{Budget: budget})

	// Seeds: the genuine envelope of each tier, as a peer writes it, and
	// known poisons.
	genuine := NewMemStore()
	w := New()
	w.SetRemote(genuine)
	if _, err := w.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{}); err != nil {
		f.Fatal(err)
	}
	w.PutAnalytic(ak, &AnalyticSolution{Alloc: alloc, LossRate: 0.25})
	w.PutRobust(rk, &RobustSolution{Alloc: alloc, LossRate: 0.25,
		Report: uncertain.Report{Yield: 0.9, YieldLow: 0.8, NominalYield: 0.5, BudgetUsed: budget}})
	w.PutPlacement(pk, []byte(`{"budget":24,"frontier":[{}],"chosen":{}}`))
	for _, k := range []Key{Fingerprint(m, SolveOptions{}), ak, rk, pk} {
		b, ok := genuine.Get(context.Background(), k)
		if !ok {
			f.Fatal("a genuine payload was not written behind")
		}
		f.Add(b)
	}
	for _, poison := range []string{
		`{"tier":"analytic","data":{"Alloc":{},"LossRate":0}}`,
		`{"tier":"analytic","data":{"Alloc":{"cpu@ahb1":-5}}}`,
		`{"tier":"robust","data":{"Alloc":{"cpu@ahb1":-5}}}`,
		`{"tier":"placement","data":{"budget":1}}`,
		`{"tier":"exact","data":null}`,
		`{"tier":"placement","data":""}`,
		`null`,
		`not json`,
	} {
		f.Add([]byte(poison))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New()
		c.SetRemote(fixedStore(data))
		adopted := func(tier string, ok bool, before Stats) bool {
			t.Helper()
			s := c.Stats()
			hit, miss := s.RemoteHits-before.RemoteHits, s.RemoteMisses-before.RemoteMisses
			if hit+miss != 1 || ok != (hit == 1) {
				t.Fatalf("%s: lookup ok=%v after %d remote hits, %d remote misses", tier, ok, hit, miss)
			}
			return ok
		}

		before := c.Stats()
		if _, err := c.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{}); err != nil {
			t.Fatalf("exact: a remote payload failed the solve: %v", err)
		}
		if s := c.Stats(); adopted("exact", s.Misses == 0, before) {
			e, _ := c.exact.get(Fingerprint(m, SolveOptions{}))
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			var again entry
			if err := json.Unmarshal(b, &again); err != nil || !again.matches(m, canonicalOrder(m)) {
				t.Fatalf("exact: adopted an entry its tier rejects (%v)", err)
			}
		}

		before = c.Stats()
		if s, ok := c.LookupAnalytic(ak, a, budget); adopted("analytic", ok, before) &&
			!validSizing(s.Alloc, s.LossRate, a, budget) {
			t.Fatalf("analytic: adopted %+v, no sizing of the architecture at budget %d", s, budget)
		}
		before = c.Stats()
		if s, ok := c.LookupRobust(rk, a, budget); adopted("robust", ok, before) && !validRobust(s, a, budget) {
			t.Fatalf("robust: adopted %+v, no sizing of the architecture at budget %d", s, budget)
		}
		before = c.Stats()
		if b, ok := c.LookupPlacement(pk); adopted("placement", ok, before) && len(b) == 0 {
			t.Fatal("placement: adopted an empty payload")
		}
	})
}
