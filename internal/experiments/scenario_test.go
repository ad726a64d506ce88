package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"socbuf/internal/scenario"
)

// quickOpt keeps scenario-sweep unit tests fast.
var quickOpt = Options{Iterations: 2, Seeds: []int64{1}, Horizon: 600, WarmUp: 50, Workers: 2}

func TestScenarioSweepTwoPoints(t *testing.T) {
	scs, err := scenario.Resolve([]string{"twobus", "chain6"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScenarioSweepCtx(context.Background(), scs, quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2 (failed: %v)", len(res.Points), res.Failed)
	}
	for i, p := range res.Points {
		if p.Name != scs[i].Name {
			t.Fatalf("point %d is %q, want %q (input order must be preserved)", i, p.Name, scs[i].Name)
		}
		if p.Buses == 0 || p.Buffers == 0 || p.Budget == 0 {
			t.Fatalf("point %q incomplete: %+v", p.Name, p)
		}
		if p.Pre < 0 || p.Post < 0 || p.LossFrac < 0 || p.LossFrac > 1 {
			t.Fatalf("point %q out of range: %+v", p.Name, p)
		}
		if p.Latency < 0 {
			t.Fatalf("point %q negative latency: %v", p.Name, p.Latency)
		}
	}

	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	tbl := sb.String()
	for _, want := range []string{"SCENARIO", "twobus", "chain6", "improvement", "latency"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestScenarioSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	scs, err := scenario.Resolve([]string{"twobus", "star6"})
	if err != nil {
		t.Fatal(err)
	}
	serial := quickOpt
	serial.Workers = 1
	r1, err := ScenarioSweepCtx(context.Background(), scs, serial)
	if err != nil {
		t.Fatal(err)
	}
	wide := quickOpt
	wide.Workers = 8
	r2, err := ScenarioSweepCtx(context.Background(), scs, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("worker count changed the sweep:\n  serial: %+v\n  wide:   %+v", r1, r2)
	}
}

func TestScenarioSweepBurstyDiffersFromPoisson(t *testing.T) {
	// Same generated architecture, same seeds: only the traffic model
	// differs, so the measured losses must differ while each run stays
	// seed-deterministic.
	scs, err := scenario.Resolve([]string{"chain6", "chain6-bursty"})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ScenarioSweepCtx(context.Background(), scs, quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ScenarioSweepCtx(context.Background(), scs, quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("scenario sweep not deterministic across identical runs")
	}
	poisson, bursty := r1.Points[0], r1.Points[1]
	if poisson.Arch != bursty.Arch {
		t.Fatalf("chain6 and chain6-bursty build different architectures: %q vs %q",
			poisson.Arch, bursty.Arch)
	}
	if poisson.Pre == bursty.Pre && poisson.Post == bursty.Post {
		t.Fatalf("OnOff traffic produced identical losses to Poisson (pre=%d post=%d) — sources not wired",
			poisson.Pre, bursty.Pre)
	}
}

func TestScenarioSweepCollectsPerPointFailures(t *testing.T) {
	good, _ := scenario.Get("twobus")
	bad := good
	bad.Name = "bad-budget"
	bad.Budget = 2 // below one unit per buffer: core.Run fails
	res, err := ScenarioSweepCtx(context.Background(), []scenario.Scenario{bad, good}, quickOpt)
	if err == nil {
		t.Fatal("expected a joined error")
	}
	if len(res.Points) != 1 || res.Points[0].Name != "twobus" {
		t.Fatalf("good point lost: %+v", res.Points)
	}
	if len(res.Failed) != 1 || res.Failed[0].Name != "bad-budget" {
		t.Fatalf("failure not collected: %+v", res.Failed)
	}
	if !errors.Is(err, res.Failed[0].Err) && !strings.Contains(err.Error(), "bad-budget") {
		t.Fatalf("joined error does not name the failing scenario: %v", err)
	}
}

func TestParseNames(t *testing.T) {
	if got := ParseNames(" a, b ,,c "); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("ParseNames = %v", got)
	}
	if got := ParseNames(" , "); got != nil {
		t.Fatalf("ParseNames of blanks = %v, want nil", got)
	}
}
