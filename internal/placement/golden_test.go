package placement

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frontier_golden.json from the current DP")

const frontierGoldenPath = "testdata/frontier_golden.json"

// twinCatalogue has two identically priced types (same cost and delay), so
// every merge meets exact ties that only the decision-vector order breaks.
func twinCatalogue() []BufferType {
	return []BufferType{{Name: "std", Cost: 2, Delay: 0.2}, {Name: "twin", Cost: 2, Delay: 0.2}}
}

// frontierCase is one pinned DP run: its work counters and its complete
// frontier, one string per point (decision vector in bridge-index order —
// "~" bypass, a digit the catalogue index — then cost and J as IEEE-754
// bits and the bypass count).
type frontierCase struct {
	Name       string   `json:"name"`
	Partials   int      `json:"partials"`
	Pruned     int      `json:"pruned"`
	Infeasible int      `json:"infeasible"`
	Frontier   []string `json:"frontier"`
}

func encodePoint(s scored) string {
	var sb strings.Builder
	for _, d := range s.dec {
		if d == optBypass {
			sb.WriteByte('~')
		} else {
			sb.WriteByte(byte('0' + d))
		}
	}
	fmt.Fprintf(&sb, " %016x %016x %d", math.Float64bits(s.cost), math.Float64bits(s.j), s.bypassed)
	return sb.String()
}

// placementWorkloadTopology rebuilds the i-th topology the socbufbench
// placement workload draws at seed 1 (bench/cmd/socbufbench/workload.go):
// tree/star/mesh/chain by i%4, 10–14 buses, fan-out 1, skew 4. Index 16 is
// its first 14-bus tree and 17 its first 14-bus star.
func placementWorkloadTopology(t testing.TB, i int) *arch.Architecture {
	t.Helper()
	rng := rand.New(rand.NewSource(1*1_000_003 + int64(i)))
	kind := []string{scenario.KindTree, scenario.KindStar, scenario.KindMesh, scenario.KindChain}[i%4]
	a, err := scenario.Topology{Kind: kind, Buses: 10 + (i/4)%5, FanOut: 1, Skew: 4, Seed: rng.Int63()}.Build()
	if err != nil {
		t.Fatalf("workload topology %d: %v", i, err)
	}
	return a
}

// frontierGoldenRuns runs the DP on every registry scenario at its own
// budget, and on the first 40 placement-workload topologies at a generous
// budget (3× the fully-buffered count, as the workload sends) and a tight
// one (processors + bridges), under the default and the twin catalogue.
func frontierGoldenRuns(t *testing.T) []frontierCase {
	t.Helper()
	run := func(name string, a *arch.Architecture, budget int, types []BufferType) frontierCase {
		p, err := newProblem(a, Config{Arch: a, Types: types, Budget: budget, LatencyWeight: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		front, st := runDP(t, p)
		c := frontierCase{Name: name, Partials: st.partials, Pruned: st.pruned, Infeasible: st.infeasible}
		for _, s := range front {
			c.Frontier = append(c.Frontier, encodePoint(s))
		}
		return c
	}
	var out []frontierCase
	for _, sc := range scenario.All() {
		a, err := sc.Build()
		if err != nil {
			t.Fatalf("build %s: %v", sc.Name, err)
		}
		out = append(out, run(sc.Name, a, sc.Budget, DefaultCatalogue()))
	}
	for i := 0; i < 40; i++ {
		a := placementWorkloadTopology(t, i)
		buffers := len(a.Processors) + 2*len(a.Bridges)
		for _, budget := range []int{3 * buffers, len(a.Processors) + len(a.Bridges)} {
			for _, cat := range []struct {
				name  string
				types []BufferType
			}{{"default", DefaultCatalogue()}, {"twin", twinCatalogue()}} {
				name := fmt.Sprintf("workload%02d-%s%d-b%d-%s", i, a.Name, len(a.Buses), budget, cat.name)
				out = append(out, run(name, a, budget, cat.types))
			}
		}
	}
	return out
}

// TestDPMergeMatchesSort: merging a group's ordered runs must give what
// sorting the group gives, bit for bit and counter for counter, on the
// first 40 placement-workload topologies at both golden budgets, under the
// default and twin catalogues (exact ties) and ulpCatalogue (runs out of
// order, so some groups fall back to the sort).
func TestDPMergeMatchesSort(t *testing.T) {
	resorted := 0
	for i := 0; i < 40; i++ {
		a := placementWorkloadTopology(t, i)
		buffers := len(a.Processors) + 2*len(a.Bridges)
		for _, budget := range []int{3 * buffers, len(a.Processors) + len(a.Bridges)} {
			for _, types := range [][]BufferType{DefaultCatalogue(), twinCatalogue(), ulpCatalogue()} {
				name := fmt.Sprintf("workload%02d-%s%d-b%d-%s", i, a.Name, len(a.Buses), budget, types[1].Name)
				p, err := newProblem(a, Config{Arch: a, Types: types, Budget: budget, LatencyWeight: 0.1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				front, st := runDP(t, p)
				resorted += st.resorted
				sameRun(t, name, front, st, p)
			}
		}
	}
	if resorted == 0 {
		t.Error("no group fell back to the sort")
	}
}

// TestPlacementFrontierGolden pins the DP's complete frontier — decisions,
// cost and J bit for bit, bypass counts — and its Partials, Pruned and
// Infeasible counters, on the registry and on placement-workload-shaped
// topologies. A moved frontier is a defect to find, not a file to
// regenerate; -update rewrites the file only after a deliberate change to
// what the DP computes.
func TestPlacementFrontierGolden(t *testing.T) {
	got := frontierGoldenRuns(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(frontierGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frontierGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(frontierGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []frontierCase
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d runs, the test makes %d", frontierGoldenPath, len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("run %d is %s, recorded as %s", i, g.Name, w.Name)
		}
		if g.Partials != w.Partials || g.Pruned != w.Pruned || g.Infeasible != w.Infeasible {
			t.Errorf("%s: partials/pruned/infeasible %d/%d/%d, recorded %d/%d/%d",
				g.Name, g.Partials, g.Pruned, g.Infeasible, w.Partials, w.Pruned, w.Infeasible)
		}
		if len(g.Frontier) != len(w.Frontier) {
			t.Errorf("%s: %d frontier points, recorded %d", g.Name, len(g.Frontier), len(w.Frontier))
			continue
		}
		for k := range g.Frontier {
			if g.Frontier[k] != w.Frontier[k] {
				t.Errorf("%s: frontier[%d] = %q, recorded %q", g.Name, k, g.Frontier[k], w.Frontier[k])
			}
		}
	}
}
