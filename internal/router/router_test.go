package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"socbuf/internal/engine"
	"socbuf/internal/httpapi"
	"socbuf/internal/solvecache"
)

// fastSolveBody mirrors the httpapi tests' sub-second twobus request.
const fastSolveBody = `{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50}`

// seededBody varies only the simulation seed: distinct request fingerprints
// (so the ring may spread them) over identical sub-model content (so the
// shared remote tier can answer across shards).
func seededBody(seed int) string {
	return fmt.Sprintf(`{"scenario":"twobus","iterations":1,"seeds":[%d],"horizon":400,"warmUp":50}`, seed)
}

// fleet is one in-process fleet: n httpapi-hosted engines behind a Router,
// with the background health loop disabled — tests drive RefreshHealth
// deterministically.
type fleet struct {
	rt       *Router
	front    *httptest.Server
	engines  []*engine.Engine
	apis     []*httpapi.Server
	backends []*httptest.Server
}

func startFleet(t *testing.T, n int, cfg engine.Config, opts Options) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		eng := engine.New(cfg)
		api := httpapi.NewServer(eng, true)
		ts := httptest.NewServer(api.Handler())
		f.engines = append(f.engines, eng)
		f.apis = append(f.apis, api)
		f.backends = append(f.backends, ts)
		opts.Backends = append(opts.Backends, ts.URL)
	}
	opts.HealthInterval = -1
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.front.Close()
		rt.Close()
		for i := range f.backends {
			f.backends[i].Close()
			f.engines[i].Close()
		}
	})
	return f
}

// shardFor computes which backend index the router's ring assigns to body —
// the white-box view the affinity tests assert against.
func (f *fleet) shardFor(body string) int {
	key := fingerprintAs[engine.SolveRequest]([]byte(body))
	return f.rt.ring.pick(key, func(int) bool { return true })
}

func (f *fleet) postSolve(t *testing.T, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(f.front.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRingDeterministicBalancedStable pins the three ring properties the
// fleet depends on: every router instance computes the same assignment, keys
// spread across all members, and removing one member moves only its own keys.
func TestRingDeterministicBalancedStable(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r1 := newRing(addrs, 64)
	r2 := newRing(addrs, 64)
	all := func(int) bool { return true }
	counts := make([]int, len(addrs))
	picks := make([]int, 1000)
	for i := range picks {
		key := fmt.Sprintf("key-%d", i)
		picks[i] = r1.pick(key, all)
		if got := r2.pick(key, all); got != picks[i] {
			t.Fatalf("key %d: rings disagree (%d vs %d)", i, picks[i], got)
		}
		counts[picks[i]]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Errorf("backend %d owns no keys: %v", b, counts)
		}
	}
	// Dropping backend 2 must not move any key owned by the survivors.
	without2 := func(i int) bool { return i != 2 }
	for i := range picks {
		got := r1.pick(fmt.Sprintf("key-%d", i), without2)
		if picks[i] != 2 && got != picks[i] {
			t.Fatalf("key %d moved from %d to %d when backend 2 left", i, picks[i], got)
		}
		if picks[i] == 2 && got == 2 {
			t.Fatalf("key %d still routed to the removed backend", i)
		}
	}
	if r1.pick("anything", func(int) bool { return false }) != -1 {
		t.Error("pick with no healthy backends must return -1")
	}
}

// TestRouterAffinity pins fingerprint routing: repeats of one request land on
// one shard, and normalisation-equal bodies share that shard.
func TestRouterAffinity(t *testing.T) {
	f := startFleet(t, 3, engine.Config{}, Options{})
	for i := 0; i < 3; i++ {
		resp := f.postSolve(t, fastSolveBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
	}
	var used []int
	for i, b := range f.rt.backends {
		if n := b.routed.Load(); n > 0 {
			used = append(used, i)
			if n != 3 {
				t.Errorf("backend %d routed %d, want 3", i, n)
			}
		}
	}
	if len(used) != 1 {
		t.Fatalf("identical requests spread over shards %v, want exactly one", used)
	}

	// The default preset and the worker bound normalise away, so these route
	// together — the whole point of fingerprint (not byte) affinity.
	a := fingerprintAs[engine.SolveRequest]([]byte(`{"budget":160}`))
	b := fingerprintAs[engine.SolveRequest]([]byte(`{"arch":"netproc","budget":160,"workers":7}`))
	if a != b {
		t.Error("normalisation-equal bodies must share a fingerprint")
	}
	// An undecodable body still routes deterministically (content hash).
	g1 := fingerprintAs[engine.SolveRequest]([]byte(`{not json`))
	g2 := fingerprintAs[engine.SolveRequest]([]byte(`{not json`))
	if g1 != g2 {
		t.Error("garbage bodies must route deterministically")
	}
}

// TestRouterCoalescingGate is the ISSUE's scale-out acceptance gate: N
// concurrent identical requests through the router produce exactly one
// backend solve run — sharding by the coalescing fingerprint keeps the
// engine-level singleflight intact across a fleet.
func TestRouterCoalescingGate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const followers = 5
	f := startFleet(t, 2, engine.Config{}, Options{})
	// netproc at iterations 1 runs for seconds — a wide coalescing window.
	body := `{"scenario":"netproc","iterations":1,"seeds":[1],"horizon":400,"warmUp":50}`

	statuses := make(chan int, followers+1)
	run := func() {
		resp, err := http.Post(f.front.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go run() // leader
	waitFor(t, "leader in flight", func() bool {
		for _, e := range f.engines {
			if e.Stats().InFlight == 1 {
				return true
			}
		}
		return false
	})
	for i := 0; i < followers; i++ {
		go run()
	}
	for i := 0; i < followers+1; i++ {
		if got := <-statuses; got != http.StatusOK {
			t.Fatalf("request %d: status %d", i, got)
		}
	}
	var runs, coalesced int64
	for _, e := range f.engines {
		s := e.Stats()
		runs += s.SolveRuns
		coalesced += s.Coalesced
	}
	if runs != 1 || coalesced != followers {
		t.Fatalf("fleet ran %d solves (%d coalesced), want exactly 1 run and %d coalesced", runs, coalesced, followers)
	}
}

// TestRouterFailover pins the retry path: a request whose home shard is dead
// is replayed on the next ring member, transparently to the client.
func TestRouterFailover(t *testing.T) {
	f := startFleet(t, 2, engine.Config{}, Options{})
	// Find a body homed on the shard we are about to kill.
	const dead = 0
	seed := -1
	for s := 1; s <= 64; s++ {
		if f.shardFor(seededBody(s)) == dead {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed in 1..64 homes on shard 0 — ring badly unbalanced")
	}
	f.backends[dead].Close()

	resp := f.postSolve(t, seededBody(seed))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover solve: status %d", resp.StatusCode)
	}
	if f.rt.backends[dead].healthy.Load() {
		t.Error("dead shard still marked healthy after a failed proxy")
	}
	if got := f.rt.failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if got := f.engines[1-dead].Stats().SolveRuns; got != 1 {
		t.Errorf("surviving shard ran %d solves, want 1", got)
	}
	// The fleet is still ready on one shard.
	r2, err := http.Get(f.front.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("readyz with one live shard: status %d", r2.StatusCode)
	}
}

// TestRouterDrainAwareHealth pins the readiness plumbing end to end: a
// draining backend (SetReady(false), listener still up) leaves the ring on
// the next poll, and a fleet with no ready shards answers 503 + Retry-After.
func TestRouterDrainAwareHealth(t *testing.T) {
	f := startFleet(t, 2, engine.Config{}, Options{})
	ctx := context.Background()

	f.apis[0].SetReady(false)
	f.rt.RefreshHealth(ctx)
	if f.rt.backends[0].healthy.Load() {
		t.Fatal("draining backend still in the ring after a health pass")
	}
	if !f.rt.backends[1].healthy.Load() {
		t.Fatal("healthy backend dropped from the ring")
	}
	// Requests homed on the draining shard reroute.
	resp := f.postSolve(t, fastSolveBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve during drain: status %d", resp.StatusCode)
	}
	if got := f.engines[1].Stats().SolveRuns; got != 1 {
		t.Errorf("ready shard ran %d solves, want 1", got)
	}

	f.apis[1].SetReady(false)
	f.rt.RefreshHealth(ctx)
	resp = f.postSolve(t, fastSolveBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve with no ready shards: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}
	r2, err := http.Get(f.front.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fleet readyz: status %d, want 503", r2.StatusCode)
	}

	// Un-drain restores the ring.
	f.apis[0].SetReady(true)
	f.apis[1].SetReady(true)
	f.rt.RefreshHealth(ctx)
	resp = f.postSolve(t, fastSolveBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after un-drain: status %d", resp.StatusCode)
	}
}

// TestRouterErrorPassthrough pins that shard-owned answers relay verbatim: a
// 400 for a bad body, a 503 + Retry-After for engine backpressure.
func TestRouterErrorPassthrough(t *testing.T) {
	f := startFleet(t, 2, engine.Config{}, Options{})
	resp := f.postSolve(t, `{"scenario":"no-such"}`)
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
		t.Fatalf("bad body: status %d error %q, want 400 with message", resp.StatusCode, e["error"])
	}
	// Both shards healthy: the bad request must not have tripped failover.
	if got := f.rt.failovers.Load(); got != 0 {
		t.Errorf("failovers = %d after a 400, want 0", got)
	}
}

// TestFleetStats pins the aggregation endpoint: per-shard snapshots plus
// fleet sums recomputed from them.
func TestFleetStats(t *testing.T) {
	f := startFleet(t, 2, engine.Config{}, Options{})
	const n = 3
	for s := 1; s <= n; s++ {
		resp := f.postSolve(t, seededBody(s))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve seed %d: status %d", s, resp.StatusCode)
		}
	}
	resp, err := http.Get(f.front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fs.Backends != 2 || fs.Ready != 2 {
		t.Fatalf("fleet shape: %d backends, %d ready", fs.Backends, fs.Ready)
	}
	var requests, routed int64
	for _, ss := range fs.Shards {
		if ss.Stats == nil {
			t.Fatalf("shard %s: no stats (%s)", ss.Backend, ss.Error)
		}
		requests += ss.Stats.Requests
		routed += ss.Routed
	}
	if requests != n || fs.Fleet.Requests != n || routed != n {
		t.Fatalf("request accounting: shards %d, fleet %d, routed %d, want %d each", requests, fs.Fleet.Requests, routed, n)
	}
	if fs.Fleet.Cache.Entries == 0 {
		t.Error("fleet cache entry sum must reflect the solves")
	}
	if fs.Fleet.CacheRates == nil {
		t.Error("fleet stats must recompute cache rates from the summed counters")
	}
}

// robustBody is a robust solve of twobus under one simulation seed. The
// robust cache key ignores simulation seeds, so bodies that differ only in
// seed share one robust sizing.
func robustBody(seed int) string {
	return fmt.Sprintf(`{"arch":"twobus","budget":24,"method":"robust",`+
		`"uncertainty":{"rateSigma":0.2,"samples":16,"confidence":0.9,"seed":3},`+
		`"iterations":1,"seeds":[%d],"horizon":400,"warmUp":50}`, seed)
}

// TestCrossShardRemoteCacheHit is the shared-tier gate: two robust requests
// with distinct fingerprints (they differ only in simulation seeds) homed on
// distinct shards still share one robust sizing through the fleet's remote
// store — the second shard adopts it and sizes nothing itself, and answers
// exactly as a shard without the store would.
func TestCrossShardRemoteCacheHit(t *testing.T) {
	shared := solvecache.NewMemStore()
	f := startFleet(t, 2, engine.Config{RemoteCache: shared}, Options{Store: shared})

	first := f.shardFor(robustBody(1))
	other := -1
	for s := 2; s <= 64; s++ {
		if f.shardFor(robustBody(s)) != first {
			other = s
			break
		}
	}
	if other < 0 {
		t.Fatal("seeds 2..64 all home on one shard — ring badly unbalanced")
	}

	resp := f.postSolve(t, robustBody(1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d", resp.StatusCode)
	}
	if shared.Len() == 0 {
		t.Fatal("first shard's solve did not populate the shared store")
	}
	resp = f.postSolve(t, robustBody(other))
	var got engine.SolveResult
	err := json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("second solve: status %d, decode %v", resp.StatusCode, err)
	}

	second := f.shardFor(robustBody(other))
	s := f.engines[second].Stats()
	if s.Cache.RemoteHits == 0 {
		t.Errorf("second shard adopted no remote payloads: %+v", s.Cache)
	}
	if s.Cache.RobustMisses != 0 {
		t.Errorf("second shard re-sized %d robust problems its peer had published", s.Cache.RobustMisses)
	}

	var req engine.SolveRequest
	if err := json.Unmarshal([]byte(robustBody(other)), &req); err != nil {
		t.Fatal(err)
	}
	req.UseCache = true
	local := engine.New(engine.Config{})
	defer local.Close()
	want, err := local.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Errorf("remote-fed answer differs from a local one:\nwant %+v\ngot  %+v", *want, got)
	}
}

// TestRouterServesSharedCacheTier pins that the router's /v1/cache endpoint
// speaks the StoreHandler protocol a RemoteStore-attached shard consumes.
func TestRouterServesSharedCacheTier(t *testing.T) {
	f := startFleet(t, 1, engine.Config{}, Options{})
	remote := solvecache.NewRemoteStore(f.front.URL+"/v1/cache", solvecache.RemoteOptions{})
	defer remote.Close()

	key := solvecache.Key{1, 2, 3}
	if _, ok := remote.Get(context.Background(), key); ok {
		t.Fatal("empty store must miss")
	}
	remote.Put(context.Background(), key, []byte(`{"tier":"probe","data":"42"}`))
	waitFor(t, "write-behind put", func() bool {
		_, ok := remote.Get(context.Background(), key)
		return ok
	})
	got, ok := remote.Get(context.Background(), key)
	if !ok || string(got) != `{"tier":"probe","data":"42"}` {
		t.Fatalf("round-trip through the router cache tier: %q (ok %v)", got, ok)
	}
}

// TestRouterOptionValidation pins constructor errors.
func TestRouterOptionValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no backends must fail")
	}
	if _, err := New(Options{Backends: []string{"not-a-url"}}); err == nil {
		t.Error("relative backend URL must fail")
	}
	if _, err := New(Options{Backends: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Error("duplicate backends must fail")
	}
	if _, err := New(Options{Backends: []string{"http://a:1"}, Replicas: -3}); err == nil {
		t.Error("negative replicas must fail")
	}
}
