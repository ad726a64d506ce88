package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"socbuf/internal/engine"
	"socbuf/internal/experiments"
	"socbuf/internal/placement"
)

// fastSolveBody is a sub-second twobus methodology request shared by the
// endpoint tests.
const fastSolveBody = `{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50}`

func startServer(t *testing.T, cfg engine.Config, defaultCache bool) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng := engine.New(cfg)
	ts := httptest.NewServer(NewServer(eng, defaultCache).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return eng, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, false)
	resp := postJSON(t, ts.URL+"/v1/solve", fastSolveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var res engine.SolveResult
	decodeBody(t, resp, &res)
	if res.Scenario != "twobus" || res.Iterations != 1 || res.Subsystems == 0 {
		t.Fatalf("result shape: %+v", res)
	}
	if res.UniformLoss <= 0 || len(res.Alloc) == 0 {
		t.Fatalf("result empty: %+v", res)
	}
	var total int
	for _, a := range res.Alloc {
		total += a.Sized
	}
	if total != res.Budget {
		t.Fatalf("sized allocation sums to %d, want budget %d", total, res.Budget)
	}
}

func TestSolveEndpointErrors(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, false)
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"scenario":"no-such"}`, http.StatusBadRequest},
		{`{"arch":"twobus"}`, http.StatusBadRequest},               // missing budget
		{`{"scenario":"twobus","bogus":1}`, http.StatusBadRequest}, // unknown field
		{fastSolveBody + `{"again":true}`, http.StatusBadRequest},  // trailing data
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/solve", c.body)
		var e map[string]string
		decodeBody(t, resp, &e)
		if resp.StatusCode != c.want || e["error"] == "" {
			t.Fatalf("body %q: status %d (error %q), want %d with an error message", c.body, resp.StatusCode, e["error"], c.want)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, true)
	postJSON(t, ts.URL+"/v1/solve", fastSolveBody).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st engine.Stats
	decodeBody(t, resp, &st)
	if st.Requests < 1 || st.SolveRuns < 1 {
		t.Fatalf("stats did not count the solve: %+v", st)
	}
	// defaultCache=true: the solve went through the cache.
	if st.Cache.Misses == 0 {
		t.Fatalf("cache untouched despite default-cache: %+v", st.Cache)
	}
}

// TestStatsPerBackendCounters: /v1/stats breaks methodology runs down per
// solver backend — solves, cache hits and mean wall time — keyed by the
// canonical method name. One exact (default) solve, one analytic solve, one
// robust solve and a robust re-solve under other seeds through the default
// cache must show up under their backends, with the robust tier's cache hit
// attributed to the robust backend; the analytic backend caches nothing. A
// verbatim repeat is answered by the result tier and runs no backend at
// all.
func TestStatsPerBackendCounters(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, true)
	postJSON(t, ts.URL+"/v1/solve", fastSolveBody).Body.Close()
	analyticBody := `{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"method":"analytic"}`
	postJSON(t, ts.URL+"/v1/solve", analyticBody).Body.Close()
	robustBody := `{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"method":"robust",` +
		`"uncertainty":{"samples":16,"seed":3}}`
	postJSON(t, ts.URL+"/v1/solve", robustBody).Body.Close()
	// The same robust problem under other evaluation seeds: a new request
	// fingerprint, so it re-runs, but the robust sizing is seed-free and
	// hits the robust cache tier.
	reseeded := strings.Replace(robustBody, `"seeds":[1]`, `"seeds":[2]`, 1)
	postJSON(t, ts.URL+"/v1/solve", reseeded).Body.Close()

	stats := func() engine.Stats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st engine.Stats
		decodeBody(t, resp, &st)
		return st
	}
	st := stats()
	ex, ok := st.Backends["exact"]
	if !ok || ex.Solves != 1 {
		t.Fatalf("exact backend counters missing or wrong: %+v", st.Backends)
	}
	an, ok := st.Backends["analytic"]
	if !ok || an.Solves != 1 || an.CacheHits != 0 {
		t.Fatalf("analytic backend counters missing or wrong: %+v", st.Backends)
	}
	rb, ok := st.Backends["robust"]
	if !ok || rb.Solves != 2 {
		t.Fatalf("robust backend counters missing or wrong: %+v", st.Backends)
	}
	if rb.CacheHits == 0 || st.Cache.RobustHits == 0 {
		t.Fatalf("robust re-solve did not hit the robust cache tier: backends=%+v cache=%+v",
			st.Backends, st.Cache)
	}
	if ex.MeanWallMS <= 0 {
		t.Fatalf("exact mean wall time not recorded: %+v", ex)
	}
	if _, ok := st.Backends["hybrid"]; ok {
		t.Fatalf("hybrid backend counted without running: %+v", st.Backends)
	}

	// A verbatim repeat: a result-tier hit, flagged cached, that runs no
	// backend and reads no other tier.
	resp := postJSON(t, ts.URL+"/v1/solve", reseeded)
	var res engine.SolveResult
	decodeBody(t, resp, &res)
	if !res.Cached {
		t.Fatalf("verbatim repeat not flagged cached: %+v", res)
	}
	again := stats()
	if again.Cache.ResultHits != 1 || again.Backends["robust"] != rb ||
		again.SolveRuns != st.SolveRuns || again.Cache.RobustHits != st.Cache.RobustHits {
		t.Fatalf("verbatim repeat was not a pure result-tier hit: before %+v, after %+v", st, again)
	}
}

// TestSolveMethodRoundTrip: the request's method reaches the backend and is
// echoed in the result; unknown methods are 400s carrying the repo-wide
// uniform message.
func TestSolveMethodRoundTrip(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, false)
	resp := postJSON(t, ts.URL+"/v1/solve",
		`{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"method":"analytic"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res engine.SolveResult
	decodeBody(t, resp, &res)
	if res.Method != "analytic" {
		t.Fatalf("result method %q, want analytic", res.Method)
	}

	resp = postJSON(t, ts.URL+"/v1/solve", `{"scenario":"twobus","method":"bogus"}`)
	var e map[string]string
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown method: status %d, want 400", resp.StatusCode)
	}
	want := `unknown method "bogus" (valid methods: analytic | exact | hybrid | robust)`
	if !strings.Contains(e["error"], want) {
		t.Fatalf("error %q does not carry the uniform message %q", e["error"], want)
	}
}

// ndjsonLines splits a streaming response into its decoded lines.
func ndjsonLines(t *testing.T, resp *http.Response) []map[string]json.RawMessage {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	var out []map[string]json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBudgetSweepEndpointStreamsNDJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := startServer(t, engine.Config{}, false)
	resp := postJSON(t, ts.URL+"/v1/sweep/budget",
		`{"arch":"twobus","budgets":[24,30],"iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"useCache":true}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := ndjsonLines(t, resp)
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 2 points + 1 summary: %v", len(lines), lines)
	}
	seen := map[int]bool{}
	for _, l := range lines[:2] {
		var row experiments.BudgetRow
		if err := json.Unmarshal(l["point"], &row); err != nil {
			t.Fatalf("point line: %v", err)
		}
		if row.Error != "" || row.UniformLoss <= 0 {
			t.Fatalf("point row out of shape: %+v", row)
		}
		seen[row.Budget] = true
	}
	if !seen[24] || !seen[30] {
		t.Fatalf("streamed budgets %v, want 24 and 30", seen)
	}
	var sum budgetSummary
	if err := json.Unmarshal(lines[2]["summary"], &sum); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if sum.Arch == "" || len(sum.Points) != 2 || sum.Error != "" {
		t.Fatalf("summary out of shape: %+v", sum)
	}
	if sum.Plan == nil || sum.Plan.UniqueStructural == 0 {
		t.Fatalf("cached sweep lost its plan: %+v", sum.Plan)
	}
}

func TestBudgetSweepEndpointBadRequest(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, false)
	resp := postJSON(t, ts.URL+"/v1/sweep/budget", `{"arch":"twobus"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty budgets: status %d, want 400", resp.StatusCode)
	}
}

func TestScenarioSweepEndpointStreamsNDJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := startServer(t, engine.Config{}, false)
	resp := postJSON(t, ts.URL+"/v1/sweep/scenario",
		`{"scenarios":["twobus"],"budget":48,"iterations":1,"seeds":[1],"horizon":400}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := ndjsonLines(t, resp)
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 1 point + 1 summary: %v", len(lines), lines)
	}
	var row experiments.ScenarioRow
	if err := json.Unmarshal(lines[0]["point"], &row); err != nil {
		t.Fatal(err)
	}
	if row.Name != "twobus" || row.Budget != 48 || row.Error != "" {
		t.Fatalf("point row out of shape: %+v", row)
	}
	var sum scenarioSummary
	if err := json.Unmarshal(lines[1]["summary"], &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 1 || sum.Error != "" {
		t.Fatalf("summary out of shape: %+v", sum)
	}
}

// TestPlacementEndpointStreamsNDJSON: /v1/placement streams one eval line
// per solver evaluation and closes with the typed summary; a repeat request
// under the default cache streams only a cached summary.
func TestPlacementEndpointStreamsNDJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := startServer(t, engine.Config{}, true)
	body := `{"scenario":"twobus","method":"analytic","iterations":1,"seeds":[1],"horizon":400,"warmUp":50}`
	resp := postJSON(t, ts.URL+"/v1/placement", body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	lines := ndjsonLines(t, resp)
	if len(lines) < 2 {
		t.Fatalf("lines = %d, want at least 1 eval + 1 summary: %v", len(lines), lines)
	}
	for _, l := range lines[:len(lines)-1] {
		var pt placement.Point
		if err := json.Unmarshal(l["eval"], &pt); err != nil {
			t.Fatalf("eval line: %v", err)
		}
		if len(pt.Decisions) == 0 {
			t.Fatalf("eval without decisions: %+v", pt)
		}
	}
	var sum engine.PlacementResult
	if err := json.Unmarshal(lines[len(lines)-1]["summary"], &sum); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if sum.Scenario != "twobus" || len(sum.Frontier) == 0 || sum.Cached {
		t.Fatalf("summary out of shape: %+v", sum)
	}
	if len(lines)-1 != len(sum.Frontier) {
		t.Fatalf("streamed %d evals for a %d-point frontier", len(lines)-1, len(sum.Frontier))
	}

	// Same request again: served from the placement tier, no eval lines.
	resp = postJSON(t, ts.URL+"/v1/placement", body)
	lines = ndjsonLines(t, resp)
	if len(lines) != 1 {
		t.Fatalf("cached hit streamed %d lines, want summary only", len(lines))
	}
	var cached engine.PlacementResult
	if err := json.Unmarshal(lines[0]["summary"], &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatalf("repeat request not served from the cache: %+v", cached)
	}
}

func TestPlacementEndpointBadRequest(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, false)
	for _, body := range []string{
		`{"scenario":"no-such"}`,
		`{"arch":"twobus"}`, // missing budget
		`{"scenario":"twobus","method":"bogus"}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/placement", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestInvalidConfigIs400: methodology knobs the core rejects are the
// caller's mistake on both endpoints that run the methodology — a 400
// carrying the core's message, never a 500. A warm-up the client never sent
// is named as the default, a budget below one unit per buffer is named as
// that floor on the exact and analytic backends alike, and the removed
// refine option is refused by name.
func TestInvalidConfigIs400(t *testing.T) {
	_, ts := startServer(t, engine.Config{}, true)
	for _, c := range []struct{ knobs, want string }{
		{`"horizon":-5`, "negative horizon -5"},
		{`"iterations":-2`, "negative iterations -2"},
		{`"horizon":50`, "default warm-up 100 outside [0, horizon 50)"},
		{`"horizon":400,"warmUp":500`, "warm-up 500 outside [0, horizon 400)"},
		{`"warmUp":-1`, "warm-up -1 outside"},
	} {
		for _, path := range []string{"/v1/solve", "/v1/placement"} {
			body := `{"arch":"twobus","budget":24,"seeds":[1],` + c.knobs + `}`
			resp := postJSON(t, ts.URL+path, body)
			var e map[string]string
			decodeBody(t, resp, &e)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], c.want) {
				t.Errorf("%s %s: status %d, error %q; want 400 naming %q", path, body, resp.StatusCode, e["error"], c.want)
			}
		}
	}
	for _, method := range []string{"exact", "analytic"} {
		for _, path := range []string{"/v1/solve", "/v1/placement"} {
			body := `{"arch":"twobus","budget":1,"seeds":[1],"method":"` + method + `"}`
			resp := postJSON(t, ts.URL+path, body)
			var e map[string]string
			decodeBody(t, resp, &e)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], "below one unit per buffer") {
				t.Errorf("%s %s: status %d, error %q; want 400 naming the buffer floor", path, body, resp.StatusCode, e["error"])
			}
		}
	}
	// The refine option was removed; /v1/solve refuses it on every backend
	// rather than silently ignoring it.
	for _, method := range []string{"exact", "analytic", "hybrid", "robust"} {
		body := `{"arch":"twobus","budget":24,"seeds":[1],"method":"` + method + `","refine":true}`
		resp := postJSON(t, ts.URL+"/v1/solve", body)
		var e map[string]string
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], "refine option was removed") {
			t.Errorf("%s: status %d, error %q; want 400 naming the removal", body, resp.StatusCode, e["error"])
		}
	}
	// Uncertainty specs reach only /v1/solve; every backend validates them.
	for _, c := range []struct{ spec, want string }{
		{`{"samples":-4}`, "samples -4 outside"},
		{`{"rateSigma":-1}`, "rate sigma -1 outside"},
	} {
		for _, method := range []string{"exact", "robust"} {
			body := `{"arch":"twobus","budget":24,"method":"` + method + `","uncertainty":` + c.spec + `}`
			resp := postJSON(t, ts.URL+"/v1/solve", body)
			var e map[string]string
			decodeBody(t, resp, &e)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], c.want) {
				t.Errorf("%s: status %d, error %q; want 400 naming %q", body, resp.StatusCode, e["error"], c.want)
			}
		}
	}
}

// TestSolveCoalescingHTTP is the service-level coalescing gate: concurrent
// identical /v1/solve requests are served by exactly one underlying solve.
// The leader's run takes seconds while follower dispatch is in-process
// microseconds, so the followers reliably land inside the leader's flight;
// the deterministic (hook-gated) variant lives in internal/engine.
func TestSolveCoalescingHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const followers = 7
	eng, ts := startServer(t, engine.Config{}, false)
	// netproc at iterations 1 runs for seconds — a wide coalescing window.
	body := `{"scenario":"netproc","iterations":1,"seeds":[1],"horizon":400,"warmUp":50}`

	type outcome struct {
		status int
		res    engine.SolveResult
	}
	results := make(chan outcome, followers+1)
	run := func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- outcome{}
			return
		}
		var res engine.SolveResult
		json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		results <- outcome{resp.StatusCode, res}
	}
	go run() // leader
	waitFor(t, "leader in flight", func() bool { return eng.Stats().InFlight == 1 })
	for i := 0; i < followers; i++ {
		go run()
	}

	var first *engine.SolveResult
	for i := 0; i < followers+1; i++ {
		out := <-results
		if out.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, out.status)
		}
		if first == nil {
			first = &out.res
		} else if out.res.SizedLoss != first.SizedLoss || out.res.UniformLoss != first.UniformLoss {
			t.Fatalf("coalesced responses diverge: %+v vs %+v", out.res, first)
		}
	}
	if s := eng.Stats(); s.SolveRuns != 1 || s.Coalesced != followers {
		t.Fatalf("stats = %+v, want exactly 1 solve run and %d coalesced", s, followers)
	}
}

// TestServerShutdownCancelsInFlightSweep is the drain gate, run under -race
// in CI: engine shutdown cancels an in-flight streaming sweep, the HTTP
// response completes, and no goroutines are leaked.
func TestServerShutdownCancelsInFlightSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := runtime.NumGoroutine()
	eng := engine.New(engine.Config{})
	ts := httptest.NewServer(NewServer(eng, false).Handler())

	budgets := make([]string, 50)
	for i := range budgets {
		budgets[i] = fmt.Sprint(24 + i)
	}
	body := `{"arch":"twobus","budgets":[` + strings.Join(budgets, ",") +
		`],"iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"workers":1}`
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep/budget", "application/json", strings.NewReader(body))
		if err != nil {
			done <- err
			return
		}
		// Drain the stream to its end: the server must terminate it.
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- err
	}()
	waitFor(t, "sweep in flight", func() bool { return eng.Stats().InFlight == 1 })

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Shutdown(sctx); err != nil {
		t.Fatalf("engine shutdown did not drain: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("client stream ended badly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep response did not complete after shutdown")
	}

	// The drained engine rejects new work with backpressure while the
	// listener is still up.
	resp := postJSON(t, ts.URL+"/v1/solve", fastSolveBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", resp.StatusCode)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	// Everything the request spawned must unwind.
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
}

// TestDrainedSolveReturns503: a solve cancelled mid-flight by engine
// shutdown is backpressure (503 + Retry-After), not a 500 — draining is
// retryable against the next instance.
func TestDrainedSolveReturns503(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng, ts := startServer(t, engine.Config{}, false)
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"scenario":"netproc","iterations":1,"seeds":[1],"horizon":400,"warmUp":50}`))
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- resp
	}()
	waitFor(t, "solve in flight", func() bool { return eng.Stats().InFlight == 1 })

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	resp := <-done
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained solve: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drained solve: 503 without Retry-After")
	}
}

// TestBusyBackpressure: with max-inflight 1, a second concurrent request
// gets 503 + Retry-After while the first is running.
func TestBusyBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng, ts := startServer(t, engine.Config{MaxInFlight: 1}, false)
	occupant := make(chan struct{})
	go func() {
		defer close(occupant)
		postJSON(t, ts.URL+"/v1/solve", `{"scenario":"netproc","iterations":1,"seeds":[1],"horizon":400,"warmUp":50}`).Body.Close()
	}()
	waitFor(t, "occupant in flight", func() bool { return eng.Stats().InFlight == 1 })

	resp := postJSON(t, ts.URL+"/v1/solve", fastSolveBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	<-occupant
	if s := eng.Stats(); s.Busy != 1 {
		t.Fatalf("busy counter = %d, want 1", s.Busy)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthAndReadiness pins the fleet-signal endpoints: liveness always
// answers while the process serves, readiness flips with SetReady — the
// drain path marks a backend unready before its listener stops.
func TestHealthAndReadiness(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := NewServer(eng, false)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	get := func(path string) (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if code, m := get("/v1/healthz"); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, m)
	}
	if code, m := get("/v1/readyz"); code != http.StatusOK || m["status"] != "ready" {
		t.Fatalf("readyz: %d %v", code, m)
	}

	srv.SetReady(false)
	if code, m := get("/v1/readyz"); code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("draining readyz: %d %v", code, m)
	}
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz without Retry-After")
	}
	// Liveness is unaffected by draining; solve admission is the engine's
	// business, not readiness's.
	if code, _ := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d", code)
	}

	srv.SetReady(true)
	if code, _ := get("/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after re-ready: %d", code)
	}
}
