package solvecache_test

import (
	"context"
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
	k := solvecache.RobustFingerprint([]byte("arch"), []byte("spec"), 10, 3)
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

// TestMemStoreByteBudget: the router's shared store keeps at most its
// 64 MiB budget of payload bytes. Past it, Put evicts the least recently
// used keys, and a Get refreshes a key's recency, so the newest keys and
// the ones just read stay while the oldest go.
func TestMemStoreByteBudget(t *testing.T) {
	const (
		size   = 1 << 20  // one payload, 1 MiB
		budget = 64 << 20 // the store's fixed budget
		fit    = budget / size
	)
	ctx := context.Background()
	s := solvecache.NewMemStore()
	key := func(i int) solvecache.Key { return solvecache.Key{byte(i), byte(i >> 8)} }
	payload := make([]byte, size)
	for i := 0; i < fit; i++ {
		s.Put(ctx, key(i), payload)
	}
	if s.Len() != fit || s.Bytes() != budget {
		t.Fatalf("a full store holds %d keys, %d bytes; want %d, %d", s.Len(), s.Bytes(), fit, budget)
	}
	// Read key 0, so key 1 becomes the least recently used.
	if _, ok := s.Get(ctx, key(0)); !ok {
		t.Fatal("key 0 evicted within the budget")
	}
	const extra = 8
	for i := fit; i < fit+extra; i++ {
		s.Put(ctx, key(i), payload)
		if s.Bytes() > budget {
			t.Fatalf("after %d puts the store holds %d bytes, past its budget %d", i+1, s.Bytes(), budget)
		}
	}
	if s.Len() != fit {
		t.Fatalf("store holds %d keys, want %d", s.Len(), fit)
	}
	if _, ok := s.Get(ctx, key(0)); !ok {
		t.Error("the key read most recently before the overflow was evicted")
	}
	for i := 1; i <= extra; i++ {
		if _, ok := s.Get(ctx, key(i)); ok {
			t.Errorf("old key %d survived past the budget", i)
		}
	}
	for i := extra + 1; i < fit+extra; i++ {
		if _, ok := s.Get(ctx, key(i)); !ok {
			t.Errorf("key %d evicted although newer than every evicted key", i)
		}
	}
}

// TestMemStoreConcurrent: concurrent puts and gets over shared keys keep
// the byte count equal to the payloads held (run it under -race).
func TestMemStoreConcurrent(t *testing.T) {
	ctx := context.Background()
	s := solvecache.NewMemStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := solvecache.Key{byte(i % 32)}
				s.Put(ctx, k, make([]byte, 1+(i+w)%7))
				s.Get(ctx, solvecache.Key{byte((i + w) % 32)})
			}
		}(w)
	}
	wg.Wait()
	held := 0
	for i := 0; i < 32; i++ {
		b, _ := s.Get(ctx, solvecache.Key{byte(i)})
		held += len(b)
	}
	if s.Len() != 32 || s.Bytes() != held {
		t.Fatalf("store holds %d keys and counts %d bytes; want 32 keys and %d bytes", s.Len(), s.Bytes(), held)
	}
}

// TestExactTierStaysLocal: the exact tier never shares. Two caches on one
// store each cold-solve the same sub-model — a remote round trip costs more
// than the solve it would skip — and neither writes to nor reads from the
// store. Both answers are the canonical clone's, bit for bit.
func TestExactTierStaysLocal(t *testing.T) {
	shared := solvecache.NewMemStore()
	a, b := solvecache.New(), solvecache.New()
	a.SetRemote(shared)
	b.SetRemote(shared)

	cfg := ctmdp.JointConfig{}
	want, err := a.SolveJoint([]*ctmdp.Model{storeModel(t)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.SolveJoint([]*ctmdp.Model{storeModel(t)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Len() != 0 {
		t.Fatalf("an exact solve wrote %d payloads to the shared store", shared.Len())
	}
	for name, c := range map[string]*solvecache.Cache{"first": a, "second": b} {
		if s := c.Stats(); s.Misses != 1 || s.Hits != 0 || s.RemoteHits+s.RemoteMisses != 0 {
			t.Fatalf("%s cache: want one cold solve and no remote consult: %+v", name, s)
		}
	}
	assertSolutionsAgree(t, want, got, 0, "two cold solves of one sub-model")
}

// sizingBudget is the budget of twobusSizing's allocation.
const sizingBudget = 24

// twobusSizing returns the buffered two-bus architecture and its uniform
// allocation at sizingBudget: a genuine sizing for the robust tier to
// carry.
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

// TestRemoteSidecarTiers covers the JSON envelope tiers (robust,
// placement) across two caches sharing one store.
func TestRemoteSidecarTiers(t *testing.T) {
	shared := solvecache.NewMemStore()
	a, b := solvecache.New(), solvecache.New()
	a.SetRemote(shared)
	b.SetRemote(shared)
	tb, alloc := twobusSizing(t)

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
	if sb.RemoteHits != 2 || sb.RobustHits != 1 || sb.PlacementHits != 1 {
		t.Fatalf("stats after two adoptions: %+v", sb)
	}
	// Tier tags must not alias: a robust lookup of the key a placement
	// envelope is stored under misses rather than decoding junk.
	if _, ok := b.LookupRobust(pk, tb, sizingBudget); ok {
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
	k := solvecache.RobustFingerprint([]byte("arch"), []byte("spec"), 1, 1)
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
// at a refused port, remote consults degrade to misses (a robust lookup
// misses and its write-behind is dropped, neither failing nor blocking) and
// the breaker eventually stops touching the network.
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

	tb, alloc := twobusSizing(t)
	k := solvecache.RobustFingerprint([]byte("arch"), []byte("spec"), sizingBudget, 3)
	if _, ok := c.LookupRobust(k, tb, sizingBudget); ok {
		t.Fatal("a dead peer answered a lookup")
	}
	if s := c.Stats(); s.RemoteMisses != 1 || s.RobustMisses != 1 {
		t.Fatalf("a dead peer must count one remote miss: %+v", s)
	}
	c.PutRobust(k, &solvecache.RobustSolution{Alloc: alloc})
	if _, ok := c.LookupRobust(k, tb, sizingBudget); !ok {
		t.Fatal("the local put did not land past a dead peer")
	}

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

// TestRemotePoisonedSizings: a peer's robust payload is adopted only when
// it is a sizing of the looked-up architecture and budget with a finite,
// non-negative loss rate, a report whose yields lie in [0, 1] and which
// spends exactly its allocation. Anything else is a remote miss.
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
		name  string
		alloc map[string]int
		loss  float64
		ok    bool
	}{
		{"genuine", alloc, 0.25, true},
		{"empty allocation", map[string]int{}, 0, false},
		{"negative units", map[string]int{"cpu@ahb1": -5}, 0, false},
		{"missing buffer", edited(func(m map[string]int) { delete(m, "cpu@ahb1") }), 0, false},
		{"zero units", edited(func(m map[string]int) { m["cpu@ahb1"] = 0 }), 0, false},
		{"over budget", edited(func(m map[string]int) { m["cpu@ahb1"] += sizingBudget }), 0, false},
		{"negative loss", alloc, -1, false},
	} {
		shared := solvecache.NewMemStore()
		w, r := solvecache.New(), solvecache.New()
		w.SetRemote(shared)
		r.SetRemote(shared)
		k := solvecache.RobustFingerprint([]byte("arch"), []byte("spec"), sizingBudget, 3)
		report := genuine
		report.BudgetUsed = arch.Allocation(tc.alloc).Total()
		w.PutRobust(k, &solvecache.RobustSolution{Alloc: tc.alloc, LossRate: tc.loss, Report: report})
		_, ok := r.LookupRobust(k, tb, sizingBudget)
		if s := r.Stats(); ok != tc.ok || s.RemoteHits+s.RemoteMisses != 1 {
			t.Errorf("%s: adopted = %v, want %v (%+v)", tc.name, ok, tc.ok, s)
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

// TestStatsRates pins the per-tier rate derivation, including the only-
// tiers-with-traffic rule.
func TestStatsRates(t *testing.T) {
	s := solvecache.Stats{
		Hits: 3, Misses: 2,
		RobustHits: 1, RobustMisses: 3,
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
	approx("robust", 0.25)
	approx("remote", 0.5)
	approx("result", 0.75)
	for _, quiet := range []string{"analytic", "placement", "structural"} {
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
