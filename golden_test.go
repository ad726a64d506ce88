package socbuf_test

// TestExactAnswersGolden pins the answers the exact backend serves, byte for
// byte, so a change to the LP or the solve cache that moves an answer fails
// here rather than in a user's diff.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"socbuf/internal/engine"
	"socbuf/internal/experiments"
	"socbuf/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exact_golden.json from the current code")

const exactGoldenPath = "testdata/exact_golden.json"

// goldenCase is one pinned answer: a name and the JSON of the result.
type goldenCase struct {
	Name   string          `json:"name"`
	Result json.RawMessage `json:"result"`
}

// exactGoldenRuns computes every pinned answer. The first group is the
// request form of these CLI runs:
//
//	socbuf -json -arch twobus -budget 24 -iters 3 -horizon 400
//	socbuf -json -arch netproc -budget 160 -iters 3 -horizon 600 [-method hybrid]
//	socbuf -json -arch netproc -sweep 160,320 -iters 2 -horizon 400
//	socbuf -json -scenario chain6 -place -method exact -refine-top 1 -iters 2 -horizon 400 -parallel 2
//	socbuf -json -arch figure1 -budget 40 -iters 4 -horizon 500
//	experiments -headline -quick (which also computes -fig3 -quick)
//	experiments -sweep -quick -json
//
// The second is 16 exact budget sweeps over generated one-processor chains,
// drawn the way socbufbench's exact-sweep workload draws its requests at
// seed 1, through one engine cache as socbufd serves them.
func exactGoldenRuns(t *testing.T) []goldenCase {
	t.Helper()
	ctx := context.Background()
	var out []goldenCase
	add := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenCase{Name: name, Result: b})
	}
	// A sweep's rows carry its failed points too, so only a sweep that
	// returned nothing stops the test.
	addSweep := func(name string, sw *engine.BudgetSweepResult, err error) {
		t.Helper()
		if sw == nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, sw.Sweep.Rows(), nil)
	}

	// The CLIs run without -cache, so each request solves without one.
	eng := engine.New(engine.Config{Workers: 2})
	defer eng.Close()
	for _, r := range []struct {
		name string
		req  engine.SolveRequest
	}{
		{"twobus-24", engine.SolveRequest{Arch: "twobus", Budget: 24, Iterations: 3, Horizon: 400}},
		{"netproc-160", engine.SolveRequest{Arch: "netproc", Budget: 160, Iterations: 3, Horizon: 600}},
		{"netproc-160-hybrid", engine.SolveRequest{Arch: "netproc", Budget: 160, Iterations: 3, Horizon: 600, Method: "hybrid"}},
		{"figure1-40", engine.SolveRequest{Arch: "figure1", Budget: 40, Iterations: 4, Horizon: 500}},
	} {
		res, err := eng.Solve(ctx, r.req)
		add(r.name, res, err)
	}
	sw, err := eng.BudgetSweep(ctx, engine.BudgetSweepRequest{Arch: "netproc", Budgets: []int{160, 320}, Iterations: 2, Horizon: 400})
	addSweep("netproc-sweep-160-320", sw, err)
	pl, err := eng.Placement(ctx, engine.PlacementRequest{Scenario: "chain6", Method: "exact", RefineTop: 1, Iterations: 2, Horizon: 400, Workers: 2})
	add("chain6-place-exact", pl, err)

	quick := experiments.Options{Iterations: 3, Seeds: []int64{1, 2}, Horizon: 1200}
	h, err := experiments.Headline(160, quick)
	if err == nil {
		// policy.TimeoutThreshold sums a map, so the threshold's last bits
		// vary from run to run; the CLI prints it to three decimals.
		h.Fig3.TimeoutThreshold = math.Round(h.Fig3.TimeoutThreshold*1e3) / 1e3
	}
	add("experiments-headline-fig3-quick", h, err)
	sw, err = eng.BudgetSweep(ctx, engine.BudgetSweepRequest{Budgets: []int{160, 320, 640}, Iterations: quick.Iterations, Seeds: quick.Seeds, Horizon: quick.Horizon})
	addSweep("experiments-sweep-quick", sw, err)

	served := engine.New(engine.Config{Workers: 1})
	defer served.Close()
	for i := 0; i < 16; i++ {
		rng := rand.New(rand.NewSource(1*1_000_003 + int64(i)))
		n := 4 + i%5
		a, err := scenario.Topology{Kind: scenario.KindChain, Buses: n, FanOut: 1, Skew: 4, Seed: rng.Int63()}.Build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sw, err := served.BudgetSweep(ctx, engine.BudgetSweepRequest{
			ArchJSON:   buf.Bytes(),
			Budgets:    []int{8 * n, 10 * n, 12 * n},
			Method:     "exact",
			Iterations: 2,
			Seeds:      []int64{rng.Int63n(1 << 30)},
			Horizon:    150,
			WarmUp:     30,
			UseCache:   true,
		})
		addSweep(fmt.Sprintf("chain%d-sweep-%02d", n, i), sw, err)
	}
	return out
}

// TestExactAnswersGolden recomputes every pinned answer and compares its
// JSON byte for byte with testdata/exact_golden.json. A moved answer is a
// defect to find, not a file to regenerate; -update rewrites the file only
// after a deliberate change to what the exact backend computes.
func TestExactAnswersGolden(t *testing.T) {
	got := exactGoldenRuns(t)
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, c := range got {
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(exactGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(exactGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d answers, the test makes %d", exactGoldenPath, len(want), len(got))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("answer %d is %s, recorded as %s", i, got[i].Name, want[i].Name)
		}
		if !bytes.Equal(got[i].Result, want[i].Result) {
			t.Errorf("%s moved:\n got  %s\n want %s", got[i].Name, got[i].Result, want[i].Result)
		}
	}
}
