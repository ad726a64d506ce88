package ctmdp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func demandsFor(t *testing.T) []BufferDemand {
	t.Helper()
	m := mustModel(t, "b", 4, []Client{
		{BufferID: "hot", Lambda: 3.0, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "cold", Lambda: 0.3, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	sol := mustSolve(t, []*Model{m}, JointConfig{})
	d, err := Demands(sol.PerModel)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDemandsBasics(t *testing.T) {
	d := demandsFor(t)
	if len(d) != 2 {
		t.Fatalf("demands = %+v", d)
	}
	byID := map[string]BufferDemand{}
	for _, x := range d {
		byID[x.BufferID] = x
	}
	hot, cold := byID["hot"], byID["cold"]
	if hot.Lambda != 3.0 || cold.Lambda != 0.3 {
		t.Fatalf("lambdas wrong: %+v", d)
	}
	if hot.TailRatio <= cold.TailRatio {
		t.Fatalf("hot tail %v should exceed cold tail %v", hot.TailRatio, cold.TailRatio)
	}
	for _, x := range d {
		if x.TailRatio < minTail-1e-12 || x.TailRatio > maxTail+1e-12 {
			t.Fatalf("tail ratio %v out of range", x.TailRatio)
		}
	}
}

func TestDemandsAggregateSplit(t *testing.T) {
	clients := []Client{
		{BufferID: "hot", Lambda: 4, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "agg", Lambda: 0.9, Levels: 2, UnitsPerLevel: 1, LossWeight: 1,
			Members: []string{"m1", "m2"}, MemberLambda: []float64{0.6, 0.3}},
	}
	m := mustModel(t, "b", 5, clients)
	sol := mustSolve(t, []*Model{m}, JointConfig{})
	d, err := Demands(sol.PerModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 {
		t.Fatalf("want 3 buffers (hot, m1, m2), got %+v", d)
	}
	byID := map[string]BufferDemand{}
	for _, x := range d {
		byID[x.BufferID] = x
	}
	if _, ok := byID["agg"]; ok {
		t.Fatal("aggregate leaked into demands")
	}
	if byID["m1"].Lambda != 0.6 || byID["m2"].Lambda != 0.3 {
		t.Fatalf("member lambdas wrong: %+v", d)
	}
	// Members share the aggregate's tail.
	if byID["m1"].TailRatio != byID["m2"].TailRatio {
		t.Fatalf("member tails differ: %v vs %v", byID["m1"].TailRatio, byID["m2"].TailRatio)
	}
}

func TestDemandsDuplicateBuffer(t *testing.T) {
	m1 := mustModel(t, "b1", 2, singleClient(1, 1))
	m2 := mustModel(t, "b2", 2, singleClient(1, 1)) // same buffer ID "q"
	s1 := mustSolve(t, []*Model{m1}, JointConfig{})
	s2 := mustSolve(t, []*Model{m2}, JointConfig{})
	if _, err := Demands([]*ModelSolution{s1.PerModel[0], s2.PerModel[0]}); err == nil {
		t.Fatal("duplicate buffer accepted")
	}
}

func TestTranslateGreedyFavoursHot(t *testing.T) {
	d := demandsFor(t)
	alloc, err := Translate(d, 20)
	if err != nil {
		t.Fatal(err)
	}
	if alloc["hot"]+alloc["cold"] != 20 {
		t.Fatalf("budget not exhausted: %v", alloc)
	}
	if alloc["hot"] <= alloc["cold"] {
		t.Fatalf("greedy gave hot %d <= cold %d", alloc["hot"], alloc["cold"])
	}
	if alloc["cold"] < 1 {
		t.Fatalf("cold below floor: %v", alloc)
	}
}

func TestTranslateErrors(t *testing.T) {
	d := demandsFor(t)
	if _, err := Translate(nil, 10); err == nil {
		t.Fatal("empty demands accepted")
	}
	if _, err := Translate(d, 1); err == nil {
		t.Fatal("budget below floor accepted")
	}
}

// TestTranslateZeroScoresDegenerate: with every marginal gain zero (no
// traffic anywhere) the greedy still spends the budget exactly.
func TestTranslateZeroScoresDegenerate(t *testing.T) {
	d := []BufferDemand{
		{BufferID: "a", Lambda: 0, TailRatio: minTail},
		{BufferID: "b", Lambda: 0, TailRatio: minTail},
		{BufferID: "c", Lambda: 0, TailRatio: minTail},
	}
	alloc, err := Translate(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range alloc {
		if v < 1 {
			t.Fatalf("allocation below floor: %v", alloc)
		}
		total += v
	}
	if total != 10 {
		t.Fatalf("degenerate greedy total %d", total)
	}
}

// Property: greedy translation is monotone — a hotter buffer (higher λ, same
// tail) never receives less than a colder one.
func TestGreedyMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		d := make([]BufferDemand, n)
		tail := 0.3 + rng.Float64()*0.5
		for i := range d {
			d[i] = BufferDemand{
				BufferID:  string(rune('a' + i)),
				Lambda:    0.1 + rng.Float64()*5,
				TailRatio: tail,
			}
		}
		budget := n + rng.Intn(100)
		alloc, err := Translate(d, budget)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i].Lambda > d[j].Lambda && alloc[d[i].BufferID] < alloc[d[j].BufferID] {
					return false
				}
			}
		}
		total := 0
		for _, v := range alloc {
			total += v
		}
		return total == budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
