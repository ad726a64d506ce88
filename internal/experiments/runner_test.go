package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"socbuf/internal/arch"
)

// sweepFast keeps the real-methodology sweep tests cheap enough for -race CI.
var sweepFast = Options{Iterations: 1, Seeds: []int64{1}, Horizon: 400, WarmUp: 50}

// TestTable1WorkerInvariance is the determinism contract of the sweep
// engine: the full Table 1 pipeline must produce identical results with 1, 4
// and 8 workers.
func TestTable1WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	budgets := []int{120, 160}
	var baseline *Table1Result
	for _, workers := range []int{1, 4, 8} {
		opt := sweepFast
		opt.Workers = workers
		tbl, err := Table1(budgets, nil, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = tbl
			continue
		}
		if !reflect.DeepEqual(baseline, tbl) {
			t.Fatalf("workers=%d diverged from serial run:\nserial: %+v\ngot:    %+v", workers, baseline, tbl)
		}
	}
}

func TestBudgetSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	budgets := []int{120, 160}
	res, err := BudgetSweepCtx(context.Background(), arch.NetworkProcessor, budgets, sweepFast)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Budgets, budgets) {
		t.Fatalf("budget order not preserved: %v", res.Budgets)
	}
	for _, b := range budgets {
		if res.Pre[b] <= 0 {
			t.Fatalf("budget %d: no baseline loss measured", b)
		}
		if res.Post[b] < 0 {
			t.Fatalf("budget %d: negative post loss", b)
		}
	}
}

// TestBudgetSweepPerPointErrors checks the engine's failure isolation: an
// invalid budget fails its own point while the valid points complete.
func TestBudgetSweepPerPointErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := BudgetSweepCtx(context.Background(), arch.NetworkProcessor, []int{120, -1, 160}, sweepFast)
	if err == nil {
		t.Fatal("invalid budget did not surface an error")
	}
	if len(res.Failed) != 1 || res.Failed[0].Budget != -1 {
		t.Fatalf("failed points = %+v, want exactly budget -1", res.Failed)
	}
	if !reflect.DeepEqual(res.Budgets, []int{120, 160}) {
		t.Fatalf("valid points lost: %v", res.Budgets)
	}
	if res.Pre[120] <= 0 || res.Pre[160] <= 0 {
		t.Fatalf("valid points not populated: %+v", res.Pre)
	}
}

func TestBudgetSweepEmpty(t *testing.T) {
	if _, err := BudgetSweepCtx(context.Background(), nil, nil, Options{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

// TestBudgetSweepRowsJSONAndStreaming covers the machine-readable surface:
// Rows/WriteJSON agree with the table-side maps, and the OnBudgetRow hook
// fires once per point (including failed points) with the same numbers the
// final result reports.
func TestBudgetSweepRowsJSONAndStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var (
		mu       sync.Mutex
		streamed []BudgetRow
	)
	opt := sweepFast
	opt.Workers = 2
	opt.OnBudgetRow = func(r BudgetRow) {
		mu.Lock()
		streamed = append(streamed, r)
		mu.Unlock()
	}
	budgets := []int{24, -1, 30}
	res, err := BudgetSweepCtx(context.Background(), arch.TwoBusAMBA, budgets, opt)
	if err == nil {
		t.Fatal("invalid budget did not surface an error")
	}
	rows := res.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.Budget == -1 {
			if r.Error == "" {
				t.Fatalf("failed row lost its error: %+v", r)
			}
			continue
		}
		if r.Error != "" || r.UniformLoss != res.Pre[r.Budget] || r.SizedLoss != res.Post[r.Budget] {
			t.Fatalf("row diverges from result maps: %+v", r)
		}
	}

	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []BudgetRow `json:"points"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WriteJSON output does not round-trip: %v\n%s", err, sb.String())
	}
	if !reflect.DeepEqual(doc.Points, rows) {
		t.Fatalf("JSON document diverges from Rows():\n%+v\n%+v", doc.Points, rows)
	}

	// The stream saw every point exactly once, in some completion order.
	if len(streamed) != 3 {
		t.Fatalf("streamed %d rows, want 3: %+v", len(streamed), streamed)
	}
	byBudget := map[int]BudgetRow{}
	for _, r := range streamed {
		byBudget[r.Budget] = r
	}
	for _, want := range rows {
		if got := byBudget[want.Budget]; got != want {
			t.Fatalf("streamed row for budget %d = %+v, want %+v", want.Budget, got, want)
		}
	}
}

// TestBudgetSweepCtxCancelled: a dead context fails every point with the
// context error and runs no methodology work.
func TestBudgetSweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BudgetSweepCtx(ctx, arch.TwoBusAMBA, []int{24, 30}, sweepFast)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}
	if len(res.Failed) != 2 || len(res.Budgets) != 0 {
		t.Fatalf("cancelled sweep still produced points: %+v", res)
	}
}
