package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/scenario"
)

// buildTopology generates one of the registry topology families at a small
// size — the same generator the scenario registry uses, so the gate runs on
// exactly the architectures placements target.
func buildTopology(t *testing.T, kind string, buses int, seed int64) *arch.Architecture {
	t.Helper()
	a, err := scenario.Topology{
		Kind:        kind,
		Buses:       buses,
		FanOut:      2,
		Utilisation: 0.85,
		Skew:        2,
		Seed:        seed,
	}.Build()
	if err != nil {
		t.Fatalf("build %s/%d: %v", kind, buses, err)
	}
	return a
}

// runDP runs the DP to completion under a context that never ends.
func runDP(t testing.TB, p *problem) ([]scored, dpStats) {
	t.Helper()
	front, st, err := p.runDP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return front, st
}

// runSorted runs the DP with every group sorted, never merged: the
// reference the merge must reproduce bit for bit.
func runSorted(t testing.TB, p *problem) ([]scored, dpStats) {
	t.Helper()
	d := p.newRun(context.Background())
	d.sortAll = true
	front, st, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	return front, st
}

// ulpCatalogue prices its two types at 1 and the next float above it, the
// dearer type the faster. Two partials whose costs differ by that ulp cost
// the same once another type's cost is added, and the faster one — later
// by cost — now comes first by J, so runs of shifted partials lose
// comparator order.
func ulpCatalogue() []BufferType {
	return []BufferType{{Name: "slow", Cost: 1, Delay: 0.5}, {Name: "fast", Cost: math.Nextafter(1, 2), Delay: 0.05}}
}

func testProblem(t *testing.T, a *arch.Architecture, budget int) *problem {
	t.Helper()
	cfg := Config{Arch: a, Types: DefaultCatalogue(), Budget: budget, LatencyWeight: 0.1}
	p, err := newProblem(a, cfg)
	if err != nil {
		t.Fatalf("newProblem: %v", err)
	}
	return p
}

// sameFrontier asserts the two complete frontiers coincide: same length,
// and pointwise equal (cost, J) within tolerance — the DP accumulates the
// same summands as the brute-force recomputation, in a different order, so
// roundoff-level differences are admissible, exact mismatches are not.
func sameFrontier(t *testing.T, dp, bf []scored) {
	t.Helper()
	if len(dp) != len(bf) {
		t.Fatalf("frontier sizes differ: DP %d, brute force %d", len(dp), len(bf))
	}
	const tol = 1e-9
	for i := range dp {
		if math.Abs(dp[i].cost-bf[i].cost) > tol || math.Abs(dp[i].j-bf[i].j) > tol {
			t.Errorf("frontier[%d]: DP (%.12g, %.12g) vs brute force (%.12g, %.12g)",
				i, dp[i].cost, dp[i].j, bf[i].cost, bf[i].j)
		}
	}
}

// assertPareto asserts no frontier point dominates another (the published
// frontier must be an antichain) and that costs ascend.
func assertPareto(t *testing.T, front []scored) {
	t.Helper()
	for i := range front {
		if i > 0 && front[i].cost <= front[i-1].cost {
			t.Errorf("frontier not cost-ascending at %d: %g after %g", i, front[i].cost, front[i-1].cost)
		}
		for k := range front {
			if i == k {
				continue
			}
			if front[k].cost <= front[i].cost && front[k].j <= front[i].j {
				t.Errorf("frontier[%d] dominated by frontier[%d]", i, k)
			}
		}
	}
}

// TestDPMatchesBruteForce is the exactness gate: on small generated
// topologies of every family (≤12 candidate points), under a generous and a
// tight capacity budget and under the default catalogue and one whose second
// entry twins the first (same cost and delay, so exact ties meet at every
// merge), the pruned DP must return the same Pareto frontier as exhaustive
// enumeration. Decision vectors are not compared: brute force sums J in
// another order, so near-ties may legitimately keep different placements.
func TestDPMatchesBruteForce(t *testing.T) {
	type topo struct {
		kind  string
		buses int
		seed  int64
	}
	cases := []topo{
		{"chain", 4, 1},
		{"chain", 6, 7},
		{"star", 5, 3},
		{"tree", 7, 5},
		{"mesh", 4, 2},
		{"mesh", 6, 4},
	}
	rng := rand.New(rand.NewSource(24))
	for _, kind := range []string{"chain", "star", "tree", "mesh"} {
		for k := 0; k < 3; k++ {
			cases = append(cases, topo{kind, 4 + rng.Intn(5), rng.Int63n(1 << 30)})
		}
	}
	twin := []BufferType{{Name: "lite", Cost: 1, Delay: 0.5}, {Name: "twin", Cost: 1, Delay: 0.5}, {Name: "fast", Cost: 4, Delay: 0.05}}
	for _, tc := range cases {
		a := buildTopology(t, tc.kind, tc.buses, tc.seed)
		if len(a.Bridges) > 12 {
			t.Fatalf("%s/%d: %d candidates exceeds the small-tree gate bound", tc.kind, tc.buses, len(a.Bridges))
		}
		// Generous: every placement is feasible, so the gate tests dominance
		// pruning alone. Tight: every non-cut bridge inserted and room for
		// only half the cut edges, so the capacity floor cuts into the space.
		base := testProblem(t, a, 1000)
		cutEdges := 0
		for _, c := range base.cut {
			if c {
				cutEdges++
			}
		}
		tight := base.numAttach + 2*(len(base.bridges)-cutEdges) + cutEdges
		for _, types := range [][]BufferType{DefaultCatalogue(), twin} {
			for _, budget := range []int{1000, tight} {
				name := fmt.Sprintf("%s/%d/seed %d/%s/budget %d", tc.kind, tc.buses, tc.seed, types[1].Name, budget)
				p, err := newProblem(a, Config{Arch: a, Types: types, Budget: budget, LatencyWeight: 0.1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				dp, st := runDP(t, p)
				bf, priced, _ := p.bruteForce()
				if int64(priced) != p.enumerated {
					t.Errorf("%s: brute force priced %d of %d placements", name, priced, p.enumerated)
				}
				sameFrontier(t, dp, bf)
				assertPareto(t, dp)
				if st.partials <= st.pruned {
					t.Errorf("%s: %d partials, %d pruned — nothing survived?", name, st.partials, st.pruned)
				}
				if types[1].Name != "twin" {
					continue
				}
				// Exact ties keep the lexicographically smallest vector, so
				// the twin (index 1) never beats the entry it copies.
				for _, s := range dp {
					for i, d := range s.dec {
						if d == 1 {
							t.Errorf("%s: frontier point %s names the twin on bridge %d", name, p.signature(s.dec), i)
						}
					}
				}
			}
		}
	}
}

// TestDPMatchesBruteForceEveryBudget sweeps the capacity budget from the
// attachment floor, where only the all-bypass placement fits, to full
// insertion, where every placement does, on a small chain, star and tree.
// The bypass coordinate's clamp b_min then takes every value from the
// bridge count down to 0, and at each budget the DP must match exhaustive
// enumeration.
func TestDPMatchesBruteForceEveryBudget(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		buses int
		seed  int64
	}{{"chain", 6, 7}, {"star", 5, 3}, {"tree", 7, 5}} {
		a := buildTopology(t, tc.kind, tc.buses, tc.seed)
		base := testProblem(t, a, 1000)
		nb := len(base.bridges)
		if nb > 12 {
			t.Fatalf("%s/%d: %d candidates exceeds the small-tree gate bound", tc.kind, tc.buses, nb)
		}
		took := map[int]bool{}
		for budget := base.numAttach; budget <= base.numAttach+2*nb; budget++ {
			t.Run(fmt.Sprintf("%s/%d/budget %d", tc.kind, tc.buses, budget), func(t *testing.T) {
				p := testProblem(t, a, budget)
				took[p.newRun(context.Background()).bmin] = true
				dp, _ := runDP(t, p)
				bf, _, _ := p.bruteForce()
				sameFrontier(t, dp, bf)
				assertPareto(t, dp)
			})
		}
		for b := 0; b <= nb; b++ {
			if !took[b] {
				t.Errorf("%s/%d: b_min never took %d of 0..%d", tc.kind, tc.buses, b, nb)
			}
		}
	}
}

// TestDPRunOrderFallback: under ulpCatalogue some runs are out of
// comparator order, so their groups must be sorted instead of merged, and
// the frontier must still match exhaustive enumeration and, bit for bit
// with the counters, the DP that sorts every group. The topologies are
// stars: brute force adds a placement's costs in bridge order, as a star's
// hub does, while on chains and trees the two orders can round a sum one
// ulp apart at these costs and keep different points (chain6: 12 against
// the DP's 11, with every group sorted too).
func TestDPRunOrderFallback(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		buses int
		seed  int64
	}{{"star", 5, 3}, {"star", 8, 1}} {
		a := buildTopology(t, tc.kind, tc.buses, tc.seed)
		p, err := newProblem(a, Config{Arch: a, Types: ulpCatalogue(), Budget: 1000, LatencyWeight: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		dp, st := runDP(t, p)
		if st.resorted == 0 {
			t.Errorf("%s/%d: no group fell back to the sort", tc.kind, tc.buses)
		}
		bf, _, _ := p.bruteForce()
		sameFrontier(t, dp, bf)
		assertPareto(t, dp)
		sameRun(t, fmt.Sprintf("%s/%d", tc.kind, tc.buses), dp, st, p)
	}
}

// sameRun asserts that the DP that sorts every group reproduces front and
// st: every point's decisions, cost and J bits and bypass count, and the
// Partials, Pruned and Infeasible counters.
func sameRun(t *testing.T, name string, front []scored, st dpStats, p *problem) {
	t.Helper()
	ref, rs := runSorted(t, p)
	if st.partials != rs.partials || st.pruned != rs.pruned || st.infeasible != rs.infeasible {
		t.Errorf("%s: partials/pruned/infeasible %d/%d/%d, sorting every group %d/%d/%d",
			name, st.partials, st.pruned, st.infeasible, rs.partials, rs.pruned, rs.infeasible)
	}
	if len(front) != len(ref) {
		t.Errorf("%s: %d frontier points, sorting every group %d", name, len(front), len(ref))
		return
	}
	for k := range front {
		if got, want := encodePoint(front[k]), encodePoint(ref[k]); got != want {
			t.Errorf("%s: frontier[%d] = %q, sorting every group %q", name, k, got, want)
		}
	}
}

// TestForestDPMatchesBruteForce: an architecture whose buses connect only
// through a dual-homed processor has a bridge-disconnected bus graph (the
// paper's Figure 1: bus "a" reaches "b" through master p2, not a bridge).
// The DP must build a spanning forest, solve each component and fold the
// component frontiers — and still match exhaustive enumeration.
func TestForestDPMatchesBruteForce(t *testing.T) {
	a := arch.Figure1()
	p := testProblem(t, a, 1000)
	if len(p.roots) < 2 {
		t.Fatalf("figure1 bus graph has %d spanning-forest roots, want ≥2 (bus %q joins via a processor only)",
			len(p.roots), "a")
	}
	dp, _ := runDP(t, p)
	bf, priced, _ := p.bruteForce()
	if int64(priced) != p.enumerated {
		t.Errorf("brute force priced %d of %d placements", priced, p.enumerated)
	}
	sameFrontier(t, dp, bf)
	assertPareto(t, dp)
}

// twoLegStar builds a hand-made symmetric architecture: two identical leaf
// buses bridged to a hub, with mirrored traffic — every placement has a
// mirror image with identical cost and screened J, forcing exact ties on
// both frontier coordinates.
func twoLegStar() *arch.Architecture {
	return &arch.Architecture{
		Name: "twoleg",
		Buses: []arch.Bus{
			{ID: "hub", ServiceRate: 40},
			{ID: "leafA", ServiceRate: 20},
			{ID: "leafB", ServiceRate: 20},
		},
		Processors: []arch.Processor{
			{ID: "pa", Buses: []string{"leafA"}},
			{ID: "pb", Buses: []string{"leafB"}},
			{ID: "ph", Buses: []string{"hub"}},
		},
		Bridges: []arch.Bridge{
			{ID: "brA", BusA: "hub", BusB: "leafA"},
			{ID: "brB", BusA: "hub", BusB: "leafB"},
		},
		Flows: []arch.Flow{
			{From: "pa", To: "ph", Rate: 8},
			{From: "pb", To: "ph", Rate: 8},
			{From: "ph", To: "pa", Rate: 3},
			{From: "ph", To: "pb", Rate: 3},
		},
	}
}

// TestDominanceTiesBothCoordinates: mirrored placements tie exactly on cost
// and J; the frontier must keep exactly one representative per tied class
// (the lexicographically smallest decision vector) and still match brute
// force.
func TestDominanceTiesBothCoordinates(t *testing.T) {
	p := testProblem(t, twoLegStar(), 1000)
	dp, _ := runDP(t, p)
	bf, _, _ := p.bruteForce()
	sameFrontier(t, dp, bf)
	assertPareto(t, dp)
	seen := map[[2]float64]bool{}
	for _, s := range dp {
		k := [2]float64{s.cost, s.j}
		if seen[k] {
			t.Errorf("duplicate frontier point (%.12g, %.12g) — tie not collapsed", s.cost, s.j)
		}
		seen[k] = true
	}
	// Mirrored mixed placements (brA=lite,brB=std vs brA=std,brB=lite) tie;
	// the canonical survivor must pick brA's option first in catalogue
	// order, i.e. the lexicographically smallest decision vector.
	for _, s := range dp {
		mirror := make([]int8, len(s.dec))
		mirror[0], mirror[1] = s.dec[1], s.dec[0]
		if decLess(mirror, s.dec) {
			t.Errorf("frontier kept %v over its lexicographically smaller mirror", s.dec)
		}
	}
}

// TestSingleCandidateNode: one bridge means the frontier is just the pruned
// option list — bypass plus the non-dominated catalogue types.
func TestSingleCandidateNode(t *testing.T) {
	a := arch.TwoBusAMBA()
	p := testProblem(t, a, 1000)
	if len(p.bridges) != 1 {
		t.Fatalf("twobus has %d bridges, want 1", len(p.bridges))
	}
	if !p.cut[0] {
		t.Fatalf("the single bridge must be a cut edge")
	}
	dp, _ := runDP(t, p)
	bf, priced, _ := p.bruteForce()
	if priced != len(DefaultCatalogue())+1 {
		t.Fatalf("priced %d options, want %d", priced, len(DefaultCatalogue())+1)
	}
	sameFrontier(t, dp, bf)
	assertPareto(t, dp)
	// Bypass costs nothing, so it is always the frontier's cheapest point.
	if dp[0].cost != 0 || dp[0].bypassed != 1 {
		t.Fatalf("cheapest frontier point should be the bypass: got cost %g, bypassed %d", dp[0].cost, dp[0].bypassed)
	}
}

// TestBudgetInfeasibleSubtrees: a capacity budget below the full-insertion
// floor must discard insertion-heavy placements — and when only the
// all-bypass placement fits, the frontier is exactly that point. The DP's
// third dominance coordinate is what keeps such placements alive through
// the bottom-up merges (a cheaper-and-better partial with fewer bypasses
// must not evict them).
func TestBudgetInfeasibleSubtrees(t *testing.T) {
	a := buildTopology(t, "chain", 4, 1)
	attach := 0
	for _, pr := range a.Processors {
		attach += len(pr.Buses)
	}
	// Budget = attachment floor: only the all-bypass placement is feasible.
	p := testProblem(t, a, attach)
	dp, st := runDP(t, p)
	if len(dp) != 1 || dp[0].bypassed != len(a.Bridges) || dp[0].cost != 0 {
		t.Fatalf("tight budget: want the single all-bypass placement, got %+v", dp)
	}
	if st.infeasible == 0 {
		t.Fatalf("tight budget discarded no placements")
	}
	bf, _, bfInfeasible := p.bruteForce()
	sameFrontier(t, dp, bf)
	if bfInfeasible == 0 {
		t.Fatalf("brute force saw no infeasible placements")
	}

	// Room for exactly one inserted bridge: feasible placements bypass at
	// least len(bridges)-1 edges.
	p = testProblem(t, a, attach+2)
	dp, _ = runDP(t, p)
	bf, _, _ = p.bruteForce()
	sameFrontier(t, dp, bf)
	for _, s := range dp {
		if s.bypassed < len(a.Bridges)-1 {
			t.Errorf("placement with %d bypasses infeasible under budget %d yet on frontier", s.bypassed, attach+2)
		}
	}
}

// TestApplyContraction checks the contraction semantics: merged bus
// identity, minimum-rate aggregation, and validity of every contracted
// architecture on the frontier.
func TestApplyContraction(t *testing.T) {
	a := buildTopology(t, "chain", 4, 1)
	p := testProblem(t, a, 1000)

	// Full bypass: one merged bus named after the smallest member, at the
	// slowest member's rate.
	dec := make([]int8, len(p.bridges))
	for i := range dec {
		dec[i] = optBypass
	}
	merged, err := p.apply(dec)
	if err != nil {
		t.Fatalf("apply full bypass: %v", err)
	}
	if len(merged.Buses) != 1 || len(merged.Bridges) != 0 {
		t.Fatalf("full bypass: got %d buses, %d bridges", len(merged.Buses), len(merged.Bridges))
	}
	if merged.Buses[0].ID != p.buses[0] {
		t.Errorf("merged bus named %q, want smallest member %q", merged.Buses[0].ID, p.buses[0])
	}
	minRate := math.Inf(1)
	for _, b := range a.Buses {
		minRate = math.Min(minRate, b.ServiceRate)
	}
	if merged.Buses[0].ServiceRate != minRate {
		t.Errorf("merged rate %g, want member minimum %g", merged.Buses[0].ServiceRate, minRate)
	}

	// Every frontier placement must contract to a valid architecture.
	front, _ := runDP(t, p)
	for _, s := range front {
		c, err := p.apply(s.dec)
		if err != nil {
			t.Fatalf("apply %s: %v", p.signature(s.dec), err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("contracted %s invalid: %v", p.signature(s.dec), err)
		}
		if got := len(c.Bridges); got != len(p.bridges)-s.bypassed {
			t.Errorf("%s: %d bridges survive, want %d", p.signature(s.dec), got, len(p.bridges)-s.bypassed)
		}
	}
}

// TestMeshHasNoBypassCandidates: every edge of a grid lies on a cycle, so
// no bridge is a cut edge and contraction is never offered — placement
// degrades to pure type selection, per the §7 contract.
func TestMeshHasNoBypassCandidates(t *testing.T) {
	a := buildTopology(t, "mesh", 9, 2)
	p := testProblem(t, a, 1000)
	for i, c := range p.cut {
		if c {
			t.Errorf("mesh bridge %s marked as cut edge", p.bridges[i].ID)
		}
	}
	front, _ := runDP(t, p)
	for _, s := range front {
		if s.bypassed != 0 {
			t.Errorf("mesh frontier placement bypasses %d bridges", s.bypassed)
		}
	}
}
