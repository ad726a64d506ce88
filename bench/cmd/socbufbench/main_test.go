package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"socbuf/internal/engine"
	"socbuf/internal/httpapi"
	"socbuf/internal/solvecache"
)

func TestRequestsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		same, distinct := 0, map[string]bool{}
		for i := 0; i < 24; i++ {
			a, b := w.request(1, i), w.request(1, i)
			if a.path != b.path || !bytes.Equal(a.body, b.body) {
				t.Fatalf("%s request %d differs between two generations with seed 1", w.name, i)
			}
			if bytes.Equal(a.body, w.request(2, i).body) {
				same++
			}
			distinct[fingerprint(a)] = true
		}
		if same != 0 {
			t.Errorf("%s: %d of 24 requests are equal under seeds 1 and 2", w.name, same)
		}
		want := 24
		if w.distinct > 0 {
			want = w.distinct
		}
		if len(distinct) != want {
			t.Errorf("%s: 24 requests carry %d distinct inputs, want %d", w.name, len(distinct), want)
		}
		if got := len(checkSet(w, 1)); got != w.checked {
			t.Errorf("%s: check set has %d requests, want %d", w.name, got, w.checked)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A percentile is reported only with at least minBeyond samples above
	// its rank: p90 needs 100 samples, p99 needs 1000.
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {109, 0.9, 10}, {1000, 0.99, 10}, {999, 0.99, 9}, {1, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json this command must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricsAgreeWithBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, declared []struct{ Name, Unit string }, printed []decl) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", kind, len(declared), len(printed))
		}
		units := map[string]string{}
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		values := map[string]float64{}
		for _, p := range printed {
			if !name.MatchString(p.name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", kind, p.name)
			}
			if u, ok := units[p.name]; !ok || u != p.unit {
				t.Errorf("%s: %s is printed in %q, declared in %q", kind, p.name, p.unit, u)
			}
			values[p.name] = 1
		}
		if _, err := metricsOf(printed, values); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		values["stray"] = 1
		if _, err := metricsOf(printed, values); err == nil {
			t.Errorf("%s: an undeclared metric was accepted", kind)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestSmoke sends each workload's first two requests to socbufd's handler
// in-process, and replays them unrolled: both must answer, with the same
// sizing.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		eng := engine.New(engine.Config{})
		h := httpapi.NewServer(eng, true).Handler()
		u := &unrolled{tr: newTracer(w.name), cache: solvecache.New()}
		for i := 0; i < 2; i++ {
			r := w.request(1, i)
			body, err := serveInProcess(ctx, h, r)
			if err != nil {
				t.Fatalf("%s request %d: %v", w.name, i, err)
			}
			want, err := parseSizing(r.path, body)
			if err != nil {
				t.Fatalf("%s request %d: %v", w.name, i, err)
			}
			u.tr.setRequest(i)
			body, err = u.handle(ctx, r)
			if err != nil {
				t.Fatalf("%s request %d unrolled: %v", w.name, i, err)
			}
			got, err := parseSizing(r.path, body)
			if err != nil {
				t.Fatalf("%s request %d unrolled: %v", w.name, i, err)
			}
			if got != want {
				t.Errorf("%s request %d: unrolled sizing %s, handler %s", w.name, i, got, want)
			}
		}
		_ = eng.Close()
		if len(u.tr.spans) == 0 {
			t.Errorf("%s: the unrolled replay recorded no spans", w.name)
		}
	}
}

// TestDriveChecksEveryRepeat drives hot-fleet's closed loop briefly against
// an in-process socbufd and checks every answer against the reference.
func TestDriveChecksEveryRepeat(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("hot-fleet")
	if err != nil {
		t.Fatal(err)
	}
	p, err := startInProcess(newTracer(w.name), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	checks := checkSet(w, 3)
	primed, err := prime(ctx, p.url, w, checks)
	if err != nil {
		t.Fatal(err)
	}
	outs, makespan := drive(ctx, p.url, w, 3, 300*time.Millisecond)
	if len(outs) < w.distinct || makespan < 300*time.Millisecond {
		t.Fatalf("%d requests in %v", len(outs), makespan)
	}
	ref, err := reference(ctx, checks)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkOutcomes(w, outs, checks, ref) + checkOutcomes(w, primed, checks, ref); bad != 0 {
		t.Errorf("%d answers differ from the reference", bad)
	}
	for _, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", o.req.index, o.err)
		}
	}
	// A changed answer is caught.
	outs[0].sizing += " "
	if bad := checkOutcomes(w, outs[:1], checks, ref); bad != 1 {
		t.Errorf("a changed sizing counted %d mismatches, want 1", bad)
	}
}

// TestTraceRun runs hot-fleet's traced replay, router included, and checks
// that the layers it isolates are measured.
func TestTraceRun(t *testing.T) {
	w, err := workloadByName("hot-fleet")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := traceRun(context.Background(), w, 5, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != w.traced {
		t.Errorf("result %+v", res)
	}
	for _, name := range []string{"router.self_share", "httpapi.decode_ms", "engine.fingerprint_us", "solver.run_ms", "sim.share", "trace.coverage"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if v := res.Metrics["solvecache.hit_ratio.placement"].Value; v != 1 {
		t.Errorf("primed placements hit the cache at %v, want 1", v)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace.json: %d spans, %v", len(spans), err)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 50}, // overlaps span 2 by 10
		{ID: 4, Parent: 3, StartNS: 35, EndNS: 45},
		{ID: 5, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 30, 3: 10, 4: 10, 5: 30}
	got := selfNS(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %d, want %d", id, got[id], w)
		}
	}
}
