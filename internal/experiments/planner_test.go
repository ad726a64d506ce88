package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
)

// TestPlanBudgetSweepDedup pins the planner's core observation: across
// budget points only capacities change, and the fingerprint leaves them out,
// so the distinct fingerprint count equals one sweep point's sub-model
// count.
func TestPlanBudgetSweepDedup(t *testing.T) {
	budgets := []int{120, 160, 200}
	plan, err := PlanBudgetSweep(arch.NetworkProcessor, budgets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Budgets, budgets) {
		t.Fatalf("planned budgets %v, want %v", plan.Budgets, budgets)
	}
	perPoint := plan.Models / len(budgets)
	if perPoint == 0 || plan.Models%len(budgets) != 0 {
		t.Fatalf("uneven sub-model count %d over %d points", plan.Models, len(budgets))
	}
	if plan.UniqueStructural != perPoint {
		t.Errorf("distinct fingerprints = %d, want one per sub-model per point (%d)",
			plan.UniqueStructural, perPoint)
	}

	var sb strings.Builder
	if err := plan.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "structural") || strings.Contains(sb.String(), "unique") {
		t.Errorf("summary columns wrong, want structural and no unique:\n%s", sb.String())
	}
}

// TestPlanBudgetSweepSkipsBadPoints: an unplannable budget is recorded, not
// fatal, mirroring the sweep's own per-point failure isolation.
func TestPlanBudgetSweepSkipsBadPoints(t *testing.T) {
	plan, err := PlanBudgetSweep(arch.NetworkProcessor, []int{120, -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Skipped) != 1 || plan.Skipped[0].Budget != -1 {
		t.Fatalf("skipped = %+v, want exactly budget -1", plan.Skipped)
	}
	if !reflect.DeepEqual(plan.Budgets, []int{120}) {
		t.Fatalf("planned budgets = %v", plan.Budgets)
	}
}

// TestCachedBudgetSweepWorkerInvariance extends the repo's determinism
// contract to the cache-shared sweep: with a prewarmed fleet-wide cache, the
// results must still be identical for any worker count — cached payloads are
// pure functions of their fingerprints, never of worker schedule. Next to the
// network processor it sweeps generated 6-bus chains with the knobs of the
// end-to-end benchmark's exact-sweep workload, whose capped programs that
// workload solves.
func TestCachedBudgetSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type sweepCase struct {
		name    string
		newArch func() *arch.Architecture
		budgets []int
		opt     Options
	}
	cases := []sweepCase{{"netproc", arch.NetworkProcessor, []int{120, 160}, sweepFast}}
	chainOpt := Options{Iterations: 2, Seeds: []int64{1}, Horizon: 150, WarmUp: 30}
	for seed := int64(1); seed <= 3; seed++ {
		topo := scenario.Topology{Kind: scenario.KindChain, Buses: 6, FanOut: 1, Skew: 4, Seed: seed}
		a, err := topo.Build()
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		cases = append(cases, sweepCase{fmt.Sprintf("chain6-seed%d", seed), a.Clone, []int{48, 60, 72}, chainOpt})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var baseline *BudgetSweepResult
			for _, workers := range []int{1, 4, 8} {
				opt := c.opt
				opt.Workers = workers
				opt.Cache = solvecache.New()
				res, plan, err := CachedBudgetSweepCtx(context.Background(), c.newArch, c.budgets, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if plan.UniqueStructural == 0 {
					t.Fatalf("workers=%d: empty plan", workers)
				}
				if s := opt.Cache.Stats(); s.JointMisses == 0 {
					t.Fatalf("workers=%d: no capped program was solved: %+v", workers, s)
				}
				if baseline == nil {
					baseline = res
					continue
				}
				if !reflect.DeepEqual(baseline, res) {
					t.Fatalf("workers=%d diverged from serial cached run:\nserial: %+v\ngot:    %+v",
						workers, baseline, res)
				}
			}
		})
	}
}

// TestCachedBudgetSweepReuse: the shared cache must actually dedupe — after
// the prewarm every point's first-iteration free solves are hits (budget
// points differ only in capacities, which the fingerprint leaves out), and
// a repeated sweep over the same cache answers every free solve from it.
// Capped programs are never cached, so the repeat solves exactly the capped
// programs the first sweep did.
func TestCachedBudgetSweepReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := sweepFast
	opt.Cache = solvecache.New()
	budgets := []int{120, 160}
	res, plan, err := CachedBudgetSweepCtx(context.Background(), arch.NetworkProcessor, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := opt.Cache.Stats()
	if s.Hits < int64(plan.Models) || s.WarmStarts != 0 {
		t.Errorf("%d hits and %d warm starts, want every one of the %d first-iteration solves a hit and no warm starts: %+v",
			s.Hits, s.WarmStarts, plan.Models, s)
	}

	again, err := BudgetSweepCtx(context.Background(), arch.NetworkProcessor, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("re-sweeping over a warm cache changed the results")
	}
	s2 := opt.Cache.Stats()
	if s2.Misses != s.Misses {
		t.Errorf("re-sweep performed %d new cold solves", s2.Misses-s.Misses)
	}
	if s.JointMisses == 0 || s2.JointMisses != 2*s.JointMisses {
		t.Errorf("re-sweep solved %d capped programs, the first sweep %d", s2.JointMisses-s.JointMisses, s.JointMisses)
	}
}

// TestRobustSweepPlansNothing: the robust backend solves no CTMDP
// sub-models, so a robust-only cached sweep plans and prewarms nothing — a
// nil plan and no exact-tier solves — and its rows equal the same sweep run
// without a cache.
func TestRobustSweepPlansNothing(t *testing.T) {
	budgets := []int{24, 30}
	opt := Options{Method: "robust", Iterations: 1, Seeds: []int64{1}, Horizon: 400}
	plain, err := BudgetSweepCtx(context.Background(), arch.TwoBusAMBA, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Cache = solvecache.New()
	res, plan, err := CachedBudgetSweepCtx(context.Background(), arch.TwoBusAMBA, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Errorf("robust-only sweep planned %d sub-models", plan.Models)
	}
	if s := opt.Cache.Stats(); s.Misses != 0 || s.Hits != 0 {
		t.Errorf("robust-only sweep touched the exact tier: %+v", s)
	}
	if !reflect.DeepEqual(plain.Rows(), res.Rows()) {
		t.Errorf("cached rows %+v, uncached %+v", res.Rows(), plain.Rows())
	}
}

// TestWriteCacheStatsRates pins the -cache-stats rendering: untouched tiers
// stay out of the table, touched tiers (remote included) appear with their
// counters, and the derived hit-rate table follows.
func TestWriteCacheStatsRates(t *testing.T) {
	var b strings.Builder
	s := solvecache.Stats{
		Hits: 6, Misses: 4, JointMisses: 5,
		RobustHits: 3, RobustMisses: 1,
		RemoteHits: 4, RemoteMisses: 4,
		ResultHits: 1, ResultMisses: 3,
		Entries: 2, ResultEntries: 1,
	}
	if err := WriteCacheStats(&b, s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"capped solves",
		"remote hits", "remote misses",
		"result hits", "result misses",
		"robust hits", "robust misses",
		"hit rates:",
		"exact", "robust", "result", "remote",
		"60.0%", // exact: 6 / (6+4)
		"50.0%", // remote: 4 / (4+4)
		"75.0%", // robust: 3 / (3+1)
		"25.0%", // result: 1 / (1+3)
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"analytic", "placement", "delta", "joint", "warm", "structural"} {
		if strings.Contains(out, absent) {
			t.Errorf("untouched tier %q leaked into output:\n%s", absent, out)
		}
	}

	// A cold snapshot renders only the counter table — no rates line.
	b.Reset()
	if err := WriteCacheStats(&b, solvecache.Stats{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "hit rates") {
		t.Errorf("cold snapshot grew a rates table:\n%s", b.String())
	}
}
