package solvecache_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/ctmdp"
	"socbuf/internal/solvecache"
	"socbuf/internal/uncertain"
)

// storeClients is a small solvable bus shared by the remote-tier tests.
var storeClients = []ctmdp.Client{
	{BufferID: "a", Lambda: 1.2, Levels: 2, UnitsPerLevel: 3, LossWeight: 1},
	{BufferID: "b", Lambda: 0.4, Levels: 2, UnitsPerLevel: 2, LossWeight: 2, DownstreamFullProb: 0.2},
}

func storeModel(t *testing.T) *ctmdp.Model {
	t.Helper()
	m, err := ctmdp.NewModel("bus", 4, storeClients)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := solvecache.NewMemStore()
	k := solvecache.AnalyticFingerprint([]byte("arch"), 10, 3)
	if _, ok := s.Get(context.Background(), k); ok {
		t.Fatal("empty store must miss")
	}
	payload := []byte("hello")
	s.Put(context.Background(), k, payload)
	payload[0] = 'X' // the store must have copied
	got, ok := s.Get(context.Background(), k)
	if !ok || string(got) != "hello" {
		t.Fatalf("got %q, %v; want \"hello\", true", got, ok)
	}
	got[0] = 'Y' // and must hand back copies
	if b, _ := s.Get(context.Background(), k); string(b) != "hello" {
		t.Fatalf("store payload mutated through returned slice: %q", b)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestRemoteExactTierSharing is the tentpole's consistency gate at package
// level: two caches sharing one store answer the second cache's solve from
// the first's payload, bit-identically to a cold solve.
func TestRemoteExactTierSharing(t *testing.T) {
	shared := solvecache.NewMemStore()
	a, b := solvecache.New(), solvecache.New()
	a.SetRemote(shared)
	b.SetRemote(shared)

	m1, m2 := storeModel(t), storeModel(t)
	cfg := ctmdp.JointConfig{}
	want, err := a.SolveJoint([]*ctmdp.Model{m1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Len() == 0 {
		t.Fatal("cold solve did not write behind to the shared store")
	}
	got, err := b.SolveJoint([]*ctmdp.Model{m2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb := b.Stats()
	if sb.Hits != 1 || sb.Misses != 0 || sb.RemoteHits != 1 {
		t.Fatalf("second cache must answer from the shared store: %+v", sb)
	}
	// Bit-identical: both sides rebound the same canonical payload.
	assertSolutionsAgree(t, want, got, 0, "remote adoption vs local solve")
	// The adopted payload is now local: a re-solve is a plain hit with no
	// further remote consults.
	if _, err := b.SolveJoint([]*ctmdp.Model{m2}, cfg); err != nil {
		t.Fatal(err)
	}
	sb2 := b.Stats()
	if sb2.Hits != 2 || sb2.RemoteHits != 1 {
		t.Fatalf("adopted payload must be cached locally: %+v", sb2)
	}
}

// sizingBudget is the budget of twobusSizing's allocation.
const sizingBudget = 24

// twobusSizing returns the buffered two-bus architecture and its uniform
// allocation at sizingBudget: a genuine sizing for the analytic and robust
// tiers to carry.
func twobusSizing(t *testing.T) (*arch.Architecture, map[string]int) {
	t.Helper()
	a := arch.TwoBusAMBA()
	a.InsertBridgeBuffers()
	alloc, err := arch.UniformAllocation(a, sizingBudget)
	if err != nil {
		t.Fatal(err)
	}
	return a, alloc
}

// TestRemoteSidecarTiers covers the JSON envelope tiers (analytic, robust,
// placement) across two caches sharing one store.
func TestRemoteSidecarTiers(t *testing.T) {
	shared := solvecache.NewMemStore()
	a, b := solvecache.New(), solvecache.New()
	a.SetRemote(shared)
	b.SetRemote(shared)
	tb, alloc := twobusSizing(t)

	ak := solvecache.AnalyticFingerprint([]byte("arch"), sizingBudget, 3)
	a.PutAnalytic(ak, &solvecache.AnalyticSolution{Alloc: alloc, LossRate: 0.25})
	got, ok := b.LookupAnalytic(ak, tb, sizingBudget)
	if !ok || !reflect.DeepEqual(got.Alloc, alloc) || got.LossRate != 0.25 {
		t.Fatalf("analytic remote adoption failed: %+v, %v", got, ok)
	}

	rk := solvecache.RobustFingerprint([]byte("arch"), []byte("spec"), sizingBudget, 3)
	report := uncertain.Report{Yield: 0.9, YieldLow: 0.8, NominalYield: 0.5, BudgetUsed: sizingBudget}
	a.PutRobust(rk, &solvecache.RobustSolution{Alloc: alloc, LossRate: 0.5, Report: report})
	rgot, ok := b.LookupRobust(rk, tb, sizingBudget)
	if !ok || !reflect.DeepEqual(rgot.Alloc, alloc) || rgot.Report != report {
		t.Fatalf("robust remote adoption failed: %+v, %v", rgot, ok)
	}

	pk := solvecache.PlacementFingerprint([]byte("arch"), solvecache.PlacementMeta{})
	a.PutPlacement(pk, []byte(`{"frontier":[1,2,3]}`))
	pgot, ok := b.LookupPlacement(pk)
	if !ok || string(pgot) != `{"frontier":[1,2,3]}` {
		t.Fatalf("placement remote adoption failed: %q, %v", pgot, ok)
	}

	sb := b.Stats()
	if sb.RemoteHits != 3 || sb.AnalyticHits != 1 || sb.RobustHits != 1 || sb.PlacementHits != 1 {
		t.Fatalf("stats after three adoptions: %+v", sb)
	}
	// Tier tags must not alias: an analytic lookup under the placement key
	// space (different backend tag) misses rather than decoding junk.
	if _, ok := b.LookupAnalytic(pk, tb, sizingBudget); ok {
		t.Fatal("cross-tier key must miss")
	}

	// The result tier is local only: a put never reaches the store, and a
	// peer's lookup misses without consulting it.
	stored, before := shared.Len(), b.Stats()
	a.PutResult(pk, []byte(`{"sizedLoss":1}`))
	if _, ok := b.LookupResult(pk); ok {
		t.Fatal("result tier answered from a peer's cache")
	}
	if shared.Len() != stored {
		t.Fatalf("result put reached the remote store: %d entries, had %d", shared.Len(), stored)
	}
	if sb2 := b.Stats(); sb2.RemoteHits+sb2.RemoteMisses != before.RemoteHits+before.RemoteMisses {
		t.Fatalf("result lookup consulted the remote store: %+v", sb2)
	}
}

// TestStoreHandlerProtocol pins the sidecar wire protocol: GET/PUT by hex
// key, version tagging, and the rejection paths.
func TestStoreHandlerProtocol(t *testing.T) {
	mem := solvecache.NewMemStore()
	srv := httptest.NewServer(http.StripPrefix("/v1/cache", solvecache.StoreHandler(mem)))
	defer srv.Close()
	k := solvecache.AnalyticFingerprint([]byte("arch"), 1, 1)
	keyHex := fmt.Sprintf("%x", k[:])
	url := srv.URL + "/v1/cache/" + keyHex

	// GET miss → 404.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET miss: status %d, want 404", resp.StatusCode)
	}

	// PUT without the version header → 400, nothing stored.
	req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader("payload"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || mem.Len() != 0 {
		t.Fatalf("unversioned PUT: status %d, stored %d; want 400, 0", resp.StatusCode, mem.Len())
	}

	// Bad key → 400.
	resp, err = http.Get(srv.URL + "/v1/cache/nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: status %d, want 400", resp.StatusCode)
	}

	// Versioned PUT → 204; GET → 200 with the version header and the bytes.
	remote := solvecache.NewRemoteStore(srv.URL+"/v1/cache", solvecache.RemoteOptions{})
	defer remote.Close()
	remote.Put(nil, k, []byte("payload"))
	waitFor(t, func() bool { return mem.Len() == 1 }, "write-behind PUT to land")
	b, ok := remote.Get(nil, k)
	if !ok || string(b) != "payload" {
		t.Fatalf("round trip through RemoteStore: %q, %v", b, ok)
	}
	if st := remote.Stats(); st.Hits != 1 || st.Errors != 0 {
		t.Fatalf("remote stats: %+v", st)
	}
}

// TestRemoteStoreVersionDrift pins the belt-and-braces version check: a peer
// answering with a different serialisation version is a miss, never adopted.
func TestRemoteStoreVersionDrift(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Socbuf-Cache-Version", "999")
		_, _ = w.Write([]byte("stale-layout"))
	}))
	defer srv.Close()
	remote := solvecache.NewRemoteStore(srv.URL, solvecache.RemoteOptions{})
	defer remote.Close()
	if _, ok := remote.Get(nil, solvecache.Key{}); ok {
		t.Fatal("version drift must be a miss")
	}
	if st := remote.Stats(); st.Errors != 1 {
		t.Fatalf("version drift must count as an error: %+v", st)
	}
}

// TestRemoteStoreFailOpen is the dead-peer contract: with the store pointed
// at a refused port, solves still succeed (remote consults degrade to
// misses) and the breaker eventually stops touching the network.
func TestRemoteStoreFailOpen(t *testing.T) {
	// A listener that is immediately closed yields a port that refuses fast.
	srv := httptest.NewServer(http.NotFoundHandler())
	deadURL := srv.URL
	srv.Close()

	remote := solvecache.NewRemoteStore(deadURL, solvecache.RemoteOptions{
		Timeout:          50 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
	})
	defer remote.Close()
	c := solvecache.New()
	c.SetRemote(remote)

	got, err := c.SolveJoint([]*ctmdp.Model{storeModel(t)}, ctmdp.JointConfig{})
	if err != nil {
		t.Fatalf("a dead peer must never fail a solve: %v", err)
	}
	want, err := ctmdp.SolveJoint([]*ctmdp.Model{storeModel(t)}, ctmdp.JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertSolutionsAgree(t, want, got, 1e-8, "solve with dead peer vs plain")

	// Drive the breaker open, then verify Gets stop hitting the network.
	for i := 0; i < 4; i++ {
		remote.Get(nil, solvecache.Key{})
	}
	if st := remote.Stats(); !st.BreakerOpen {
		t.Fatalf("breaker must open after consecutive failures: %+v", st)
	}
	before := remote.Stats().Gets
	remote.Get(nil, solvecache.Key{})
	if after := remote.Stats().Gets; after != before {
		t.Fatalf("open breaker must short-circuit: gets %d -> %d", before, after)
	}
}

// TestRemoteStorePutQueueBound pins the never-block contract: with the
// write-behind queue saturated against a stalled peer, Puts drop rather
// than stall the caller.
func TestRemoteStorePutQueueBound(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall every request until the test finishes
	}))
	defer func() { once.Do(func() { close(release) }); srv.Close() }()

	remote := solvecache.NewRemoteStore(srv.URL, solvecache.RemoteOptions{
		Timeout:  5 * time.Second,
		PutQueue: 1,
	})
	defer remote.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			remote.Put(nil, solvecache.Key{byte(i)}, []byte("x"))
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Put blocked on a saturated queue")
	}
	if st := remote.Stats(); st.PutDrops == 0 {
		t.Fatalf("saturated queue must count drops: %+v", st)
	}
}

// TestRemotePoisonedPayload pins the hostile-payload contract: undecodable
// or dimensionally inconsistent remote bytes are misses, never errors,
// panics or adopted junk. Each payload meets a fresh cache, so every one
// reaches the decoder instead of a local hit.
func TestRemotePoisonedPayload(t *testing.T) {
	shared := solvecache.NewMemStore()
	m := storeModel(t)
	k := solvecache.Fingerprint(m, solvecache.SolveOptions{})
	// Value poisons: a genuine payload of m with its numbers broken, every
	// dimension intact.
	genuine := genuineExactPayload(t, m)
	poisonValues := func(edit func(d map[string]any)) string {
		t.Helper()
		var env struct {
			Tier string         `json:"tier"`
			Data map[string]any `json:"data"`
		}
		if err := json.Unmarshal(genuine, &env); err != nil {
			t.Fatal(err)
		}
		edit(env.Data)
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, poison := range []string{
		poisonValues(func(d map[string]any) { // every state probability 3
			for i := range d["stateProb"].([]any) {
				d["stateProb"].([]any)[i] = 3.0
			}
		}),
		poisonValues(func(d map[string]any) { d["x"].([]any)[0] = -0.5 }),
		poisonValues(func(d map[string]any) { d["x"].([]any)[1] = 1.5 }),
		poisonValues(func(d map[string]any) { // in range, but mass 0.5
			for i, v := range d["stateProb"].([]any) {
				d["stateProb"].([]any)[i] = v.(float64) / 2
			}
		}),
		poisonValues(func(d map[string]any) { // a visited row that is no distribution
			visited := d["visited"].([]any)
			for s, row := range d["actionProb"].([]any) {
				if visited[s].(bool) && s > 0 {
					for c := range row.([]any) {
						row.([]any)[c] = 0.7
					}
					return
				}
			}
			t.Fatal("no visited non-empty state to poison")
		}),
		"not json",
		`{"tier":"exact","data":{"serviceRate":4,"clients":[],"x":[],"stateProb":[],"actionProb":[],"visited":[]}}`,
		`{"tier":"exact","data":{"serviceRate":4,"clients":[{"bufferId":"a","lambda":1.2,"levels":2,"unitsPerLevel":3,"lossWeight":1}],"x":[1],"stateProb":[1],"actionProb":[[1]],"visited":[true]}}`,
		// A model past ctmdp.MaxStates whose state count overflows int:
		// rejected before enumeration, not a panic.
		`{"tier":"exact","data":{"serviceRate":4,"clients":[{"bufferId":"a","lambda":1.2,"levels":2,"unitsPerLevel":3,"lossWeight":1},{"bufferId":"b","lambda":0.4,"levels":9223372036854775807,"unitsPerLevel":2,"lossWeight":2}],"x":[],"stateProb":[],"actionProb":[],"visited":[]}}`,
	} {
		shared.Put(context.Background(), k, []byte(poison))
		c := solvecache.New()
		c.SetRemote(shared)
		got, err := c.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatalf("poisoned payload %q must not fail the solve: %v", poison, err)
		}
		want, err := ctmdp.SolveJoint([]*ctmdp.Model{storeModel(t)}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		assertSolutionsAgree(t, want, got, 1e-8, "solve past poisoned payload")
		if s := c.Stats(); s.RemoteHits != 0 || s.RemoteMisses != 1 {
			t.Fatalf("poisoned payload %q: want one remote miss and no hit: %+v", poison, s)
		}
	}
}

// TestRemotePoisonedSizings: a peer's analytic or robust payload is adopted
// only when it is a sizing of the looked-up architecture and budget with a
// finite, non-negative loss rate, and a robust one only when its report has
// yields in [0, 1] and spends exactly its allocation. Anything else is a
// remote miss.
func TestRemotePoisonedSizings(t *testing.T) {
	tb, alloc := twobusSizing(t)
	edited := func(edit func(map[string]int)) map[string]int {
		out := map[string]int{}
		for id, u := range alloc {
			out[id] = u
		}
		edit(out)
		return out
	}
	genuine := uncertain.Report{Yield: 0.9, YieldLow: 0.8, NominalYield: 0.5, BudgetUsed: sizingBudget}
	for _, tc := range []struct {
		name   string
		alloc  map[string]int
		loss   float64
		report uncertain.Report
		ok     bool
	}{
		{"genuine", alloc, 0.25, genuine, true},
		{"empty allocation", map[string]int{}, 0, genuine, false},
		{"negative units", map[string]int{"cpu@ahb1": -5}, 0, genuine, false},
		{"missing buffer", edited(func(m map[string]int) { delete(m, "cpu@ahb1") }), 0, genuine, false},
		{"zero units", edited(func(m map[string]int) { m["cpu@ahb1"] = 0 }), 0, genuine, false},
		{"over budget", edited(func(m map[string]int) { m["cpu@ahb1"] += sizingBudget }), 0, genuine, false},
		{"negative loss", alloc, -1, genuine, false},
	} {
		for _, tier := range []string{"analytic", "robust"} {
			shared := solvecache.NewMemStore()
			w, r := solvecache.New(), solvecache.New()
			w.SetRemote(shared)
			r.SetRemote(shared)
			var ok bool
			if tier == "analytic" {
				k := solvecache.AnalyticFingerprint([]byte("arch"), sizingBudget, 3)
				w.PutAnalytic(k, &solvecache.AnalyticSolution{Alloc: tc.alloc, LossRate: tc.loss})
				_, ok = r.LookupAnalytic(k, tb, sizingBudget)
			} else {
				k := solvecache.RobustFingerprint([]byte("arch"), []byte("spec"), sizingBudget, 3)
				w.PutRobust(k, &solvecache.RobustSolution{Alloc: tc.alloc, LossRate: tc.loss, Report: tc.report})
				_, ok = r.LookupRobust(k, tb, sizingBudget)
			}
			if s := r.Stats(); ok != tc.ok || s.RemoteHits+s.RemoteMisses != 1 {
				t.Errorf("%s/%s: adopted = %v, want %v (%+v)", tier, tc.name, ok, tc.ok, s)
			}
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*uncertain.Report)
	}{
		{"yield above 1", func(r *uncertain.Report) { r.Yield = 1.5 }},
		{"negative guarded yield", func(r *uncertain.Report) { r.YieldLow = -0.1 }},
		{"nominal yield above 1", func(r *uncertain.Report) { r.NominalYield = 2 }},
		{"budget used not the allocation's", func(r *uncertain.Report) { r.BudgetUsed-- }},
	} {
		shared := solvecache.NewMemStore()
		w, r := solvecache.New(), solvecache.New()
		w.SetRemote(shared)
		r.SetRemote(shared)
		report := genuine
		tc.edit(&report)
		k := solvecache.RobustFingerprint([]byte("arch"), []byte("spec"), sizingBudget, 3)
		w.PutRobust(k, &solvecache.RobustSolution{Alloc: alloc, Report: report})
		if _, ok := r.LookupRobust(k, tb, sizingBudget); ok {
			t.Errorf("robust payload with %s adopted", tc.name)
		}
	}
}

// genuineExactPayload returns the remote envelope a cold solve of m writes
// behind to a shared store.
func genuineExactPayload(t *testing.T, m *ctmdp.Model) []byte {
	t.Helper()
	store := solvecache.NewMemStore()
	c := solvecache.New()
	c.SetRemote(store)
	if _, err := c.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{}); err != nil {
		t.Fatal(err)
	}
	b, ok := store.Get(context.Background(), solvecache.Fingerprint(m, solvecache.SolveOptions{}))
	if !ok {
		t.Fatal("cold solve wrote no payload behind")
	}
	return b
}

// TestStatsRates pins the per-tier rate derivation, including the only-
// tiers-with-traffic rule.
func TestStatsRates(t *testing.T) {
	s := solvecache.Stats{
		Hits: 3, Misses: 2,
		AnalyticHits: 1, AnalyticMisses: 3,
		RemoteHits: 1, RemoteMisses: 1,
		ResultHits: 3, ResultMisses: 1,
	}
	r := s.Rates()
	approx := func(name string, want float64) {
		t.Helper()
		got, ok := r[name]
		if !ok {
			t.Fatalf("rate %q missing: %v", name, r)
		}
		if d := got - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("rate %q = %g, want %g", name, got, want)
		}
	}
	approx("exact", 0.6)
	approx("analytic", 0.25)
	approx("remote", 0.5)
	approx("result", 0.75)
	for _, quiet := range []string{"robust", "placement", "structural"} {
		if _, ok := r[quiet]; ok {
			t.Errorf("tier %q saw no traffic but has a rate", quiet)
		}
	}
}

// TestStatsAdd: Add must carry every numeric field of Stats, so a counter
// added later cannot silently go missing from the router's fleet merge.
func TestStatsAdd(t *testing.T) {
	var in solvecache.Stats
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("field %s has kind %s: extend Stats.Add and this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum solvecache.Stats
	sum.Add(in)
	sum.Add(in)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := 2 * int64(i+1); got.Field(i).Int() != want {
			t.Errorf("Add dropped %s: got %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
