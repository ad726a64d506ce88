package ctmdp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"socbuf/internal/queueing"
)

func mustModel(t *testing.T, bus string, mu float64, clients []Client) *Model {
	t.Helper()
	m, err := NewModel(bus, mu, clients)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustSolve(t *testing.T, models []*Model, cfg JointConfig) *JointSolution {
	t.Helper()
	sol, err := SolveJoint(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSingleClientMatchesMM1K(t *testing.T) {
	lambda, mu := 2.0, 3.0
	for _, levels := range []int{1, 2, 4} {
		m := mustModel(t, "b", mu, singleClient(lambda, levels))
		sol := mustSolve(t, []*Model{m}, JointConfig{})
		ms := sol.PerModel[0]

		q, err := queueing.NewMM1K(lambda, mu, levels)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Distribution()
		got := ms.OccupancyDistribution(0)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-6 {
				t.Fatalf("levels=%d: dist[%d] = %v, want %v", levels, k, got[k], want[k])
			}
		}
		if math.Abs(ms.FullProbability(0)-q.Blocking()) > 1e-6 {
			t.Fatalf("levels=%d: full prob %v vs blocking %v", levels, ms.FullProbability(0), q.Blocking())
		}
		if math.Abs(sol.TotalLossRate-q.LossRate()) > 1e-6 {
			t.Fatalf("levels=%d: loss rate %v vs analytic %v", levels, sol.TotalLossRate, q.LossRate())
		}
		if math.Abs(ms.Throughput(0)-q.Throughput()) > 1e-6 {
			t.Fatalf("levels=%d: throughput %v vs analytic %v", levels, ms.Throughput(0), q.Throughput())
		}
	}
}

func TestStateProbIsDistribution(t *testing.T) {
	m := mustModel(t, "b", 4, []Client{
		{BufferID: "x", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "y", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	sol := mustSolve(t, []*Model{m}, JointConfig{})
	var sum float64
	for _, p := range sol.PerModel[0].StateProb {
		if p < -1e-9 {
			t.Fatalf("negative state probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-7 {
		t.Fatalf("state probabilities sum to %v", sum)
	}
}

func TestPermutationInvariantObjective(t *testing.T) {
	// LP vertex optima need not be symmetric for symmetric inputs, but the
	// optimal VALUE must be invariant under permuting the clients.
	a := Client{BufferID: "x", Lambda: 2.2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1}
	b := Client{BufferID: "y", Lambda: 0.9, Levels: 2, UnitsPerLevel: 1, LossWeight: 1}
	m1 := mustModel(t, "b", 4, []Client{a, b})
	m2 := mustModel(t, "b", 4, []Client{b, a})
	s1 := mustSolve(t, []*Model{m1}, JointConfig{})
	s2 := mustSolve(t, []*Model{m2}, JointConfig{})
	if math.Abs(s1.TotalLossRate-s2.TotalLossRate) > 1e-7 {
		t.Fatalf("objective not permutation invariant: %v vs %v", s1.TotalLossRate, s2.TotalLossRate)
	}
}

func TestOptimalBeatsBadWeighting(t *testing.T) {
	// With one hot and one cold client, the optimal loss must be at most the
	// loss of the same system when the objective is solved with inverted
	// weights and then evaluated under true weights. Cheap sanity that the
	// LP actually optimises.
	hotCold := []Client{
		{BufferID: "hot", Lambda: 3, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "cold", Lambda: 0.3, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	}
	m := mustModel(t, "b", 3.5, hotCold)
	sol := mustSolve(t, []*Model{m}, JointConfig{})

	inverted := []Client{
		{BufferID: "hot", Lambda: 3, Levels: 2, UnitsPerLevel: 1, LossWeight: 0.01},
		{BufferID: "cold", Lambda: 0.3, Levels: 2, UnitsPerLevel: 1, LossWeight: 100},
	}
	mInv := mustModel(t, "b", 3.5, inverted)
	solInv := mustSolve(t, []*Model{mInv}, JointConfig{})
	msInv := solInv.PerModel[0]
	// Evaluate the inverted policy's measure under true weights: the
	// unweighted loss rate λ_c · P(level_c = Levels) of every client.
	var trueLoss float64
	for c, cl := range inverted {
		trueLoss += cl.Lambda * msInv.FullProbability(c)
	}
	var optLoss float64
	for c, cl := range hotCold {
		optLoss += cl.Lambda * sol.PerModel[0].FullProbability(c)
	}
	if optLoss > trueLoss+1e-7 {
		t.Fatalf("optimal loss %v worse than mis-weighted policy loss %v", optLoss, trueLoss)
	}
}

func TestOccupancyCapBindsAndCosts(t *testing.T) {
	// Asymmetric UnitsPerLevel makes the occupancy range wide: holding the
	// same packets in x costs 5× the units of y, so a capped solve shifts
	// queueing toward y (and, at the margin, admits less).
	clients := []Client{
		{BufferID: "x", Lambda: 2.0, Levels: 2, UnitsPerLevel: 5, LossWeight: 1},
		{BufferID: "y", Lambda: 2.0, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	}
	m := mustModel(t, "b", 4.5, clients)
	free := mustSolve(t, []*Model{m}, JointConfig{})
	if free.CapBinding {
		t.Fatal("unconstrained solve reports binding cap")
	}
	capLevel := free.OccupancyUsed * 0.9
	capped := mustSolve(t, []*Model{m}, JointConfig{OccupancyCap: capLevel})
	if !capped.CapBinding {
		t.Fatalf("cap at 90%% of free occupancy (%v) did not bind (used %v)",
			capLevel, capped.OccupancyUsed)
	}
	if capped.TotalLossRate < free.TotalLossRate-1e-9 {
		t.Fatalf("constrained loss %v below unconstrained %v", capped.TotalLossRate, free.TotalLossRate)
	}
	if capped.OccupancyUsed > capLevel+1e-6 {
		t.Fatalf("cap violated: used %v > %v", capped.OccupancyUsed, capLevel)
	}
}

func TestInfeasibleOccupancyCap(t *testing.T) {
	// Overloaded queue: its expected occupancy cannot be pushed near zero.
	m := mustModel(t, "b", 1, singleClient(5, 3))
	_, err := SolveJoint([]*Model{m}, JointConfig{OccupancyCap: 1e-4})
	if err == nil {
		t.Fatal("absurd occupancy cap accepted")
	}
}

// TestSequentialMatchesJointWithoutCap: without the occupancy cap the joint
// program decouples, so its objective equals the sum of the single-model
// solves — the property the per-bus solve path (solvecache.Cache.SolveJoint)
// rests on.
func TestSequentialMatchesJointWithoutCap(t *testing.T) {
	m1 := mustModel(t, "b1", 4, []Client{
		{BufferID: "x", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "y", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	m2 := mustModel(t, "b2", 3, singleClient(2, 3))
	joint := mustSolve(t, []*Model{m1, m2}, JointConfig{})
	var sum float64
	for _, m := range []*Model{m1, m2} {
		sum += mustSolve(t, []*Model{m}, JointConfig{}).TotalLossRate
	}
	if math.Abs(joint.TotalLossRate-sum) > 1e-6 {
		t.Fatalf("joint %v vs sum of single solves %v without cap", joint.TotalLossRate, sum)
	}
}

func TestSolveNoModels(t *testing.T) {
	if _, err := SolveJoint(nil, JointConfig{}); err == nil {
		t.Fatal("empty model list accepted")
	}
}

func TestZeroLambdaClientIsInert(t *testing.T) {
	m := mustModel(t, "b", 3, []Client{
		{BufferID: "live", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "dead", Lambda: 0, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	sol := mustSolve(t, []*Model{m}, JointConfig{})
	ms := sol.PerModel[0]
	if ms.Throughput(1) > 1e-9 {
		t.Fatalf("inert client has throughput %v", ms.Throughput(1))
	}
	dist := ms.OccupancyDistribution(1)
	if math.Abs(dist[0]-1) > 1e-7 {
		t.Fatalf("inert client occupancy dist = %v", dist)
	}
}

// Property: for random single-bus models, the solved stationary distribution
// is a valid probability distribution, loss rate is non-negative and at most
// the total offered rate, and throughput per client never exceeds lambda.
func TestSolveSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nc := 1 + rng.Intn(3)
		clients := make([]Client, nc)
		var offered float64
		for i := range clients {
			lam := 0.2 + rng.Float64()*3
			offered += lam
			clients[i] = Client{
				BufferID:      string(rune('a' + i)),
				Lambda:        lam,
				Levels:        1 + rng.Intn(2),
				UnitsPerLevel: 1,
				LossWeight:    1,
			}
		}
		m, err := NewModel("b", 0.5+rng.Float64()*5, clients)
		if err != nil {
			return false
		}
		sol, err := SolveJoint([]*Model{m}, JointConfig{})
		if err != nil {
			return false
		}
		ms := sol.PerModel[0]
		var sum float64
		for _, p := range ms.StateProb {
			if p < -1e-8 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
		if sol.TotalLossRate < -1e-8 || sol.TotalLossRate > offered+1e-6 {
			return false
		}
		for c := range clients {
			th := ms.Throughput(c)
			if th < -1e-8 || th > clients[c].Lambda+1e-6 {
				return false
			}
			// Flow balance per client: throughput = accepted rate =
			// λ(1 − P(full)).
			accepted := clients[c].Lambda * (1 - ms.FullProbability(c))
			if math.Abs(th-accepted) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
