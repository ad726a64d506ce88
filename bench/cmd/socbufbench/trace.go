package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"socbuf/internal/engine"
	"socbuf/internal/httpapi"
	"socbuf/internal/router"
	"socbuf/internal/solvecache"
)

// The traced run replays the workload's first w.traced requests in-process,
// one at a time, twice:
//
//  1. over HTTP, through httptest servers hosting the real httpapi handler
//     (and, for hot-fleet, the real router in front of two shards sharing
//     its cache tier), with a span around each handler; this gives the
//     client round trip, the router's own time and the solve-cache
//     counters;
//  2. unrolled through the public calls beneath httpapi (unrolled.go), with
//     a span around each call, which splits the handler's time into layers.
//
// The unrolled replay's sizing must equal the HTTP response's, or the trace
// measured a different program and the run fails. Spans stay in memory and
// are written to trace.json at the end.

// span is one timed call. Parent 0 marks a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Request  int    `json:"request"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer records spans. The replay is serial, so the current request is
// one field, and a handler on a server goroutine finds its parent among the
// spans currently open. While the request is negative (set-up) nothing is
// recorded.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	request  int
	spans    []span
	open     map[string]int // span name -> id, while open
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, request: -1, open: map[string]int{}}
}

func (t *tracer) setRequest(i int) {
	t.mu.Lock()
	t.request = i
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(layer, name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.request < 0 {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.request, Workload: t.workload,
		Layer: layer, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	t.open[name] = id
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNS = now
	if t.open[s.Name] == id {
		delete(t.open, s.Name)
	}
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a span that has already ended, from its wall time.
func (t *tracer) add(layer, name string, parent int, wall time.Duration) {
	if id := t.begin(layer, name, parent); id != 0 {
		t.mu.Lock()
		s := &t.spans[id-1]
		s.EndNS = time.Since(t.t0).Nanoseconds()
		s.StartNS = s.EndNS - wall.Nanoseconds()
		delete(t.open, name)
		t.mu.Unlock()
	}
}

// parentOf returns the id of the first open span among names, else 0.
func (t *tracer) parentOf(names ...string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range names {
		if id, ok := t.open[n]; ok {
			return id
		}
	}
	return 0
}

// wrap puts a span around every request h serves.
func (t *tracer) wrap(layer, name string, parents []string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(layer, name, t.parentOf(parents...))
		defer t.end(id)
		h.ServeHTTP(w, r)
	})
}

// selfNS returns each span's duration minus the part of it that its
// children cover.
func selfNS(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.EndNS - s.StartNS - covered
	}
	return out
}

// inProcess is the traced run's HTTP fleet: httptest servers hosting the
// real handlers, configured as socbufd's defaults except that each request
// runs on one worker, so the replay's layer times add up serially.
type inProcess struct {
	url     string
	engines []*engine.Engine
	servers []*httptest.Server
	stores  []*solvecache.RemoteStore
	rt      *router.Router
}

func startInProcess(tr *tracer, shards int) (*inProcess, error) {
	p := &inProcess{}
	newEngine := func(remote solvecache.Store) *engine.Engine {
		e := engine.New(engine.Config{Workers: 1, MaxInFlight: 16, MaxCacheEntries: 4096, RemoteCache: remote})
		p.engines = append(p.engines, e)
		return e
	}
	if shards == 0 {
		h := tr.wrap("httpapi", "httpapi.handler", []string{"client"}, httpapi.NewServer(newEngine(nil), true).Handler())
		srv := httptest.NewServer(h)
		p.servers, p.url = append(p.servers, srv), srv.URL
		return p, nil
	}
	front := httptest.NewUnstartedServer(nil)
	p.url = "http://" + front.Listener.Addr().String()
	var backends []string
	for i := 0; i < shards; i++ {
		store := solvecache.NewRemoteStore(p.url+"/v1/cache", solvecache.RemoteOptions{})
		p.stores = append(p.stores, store)
		h := tr.wrap("httpapi", "httpapi.handler", []string{"router.proxy", "client"},
			httpapi.NewServer(newEngine(store), true).Handler())
		srv := httptest.NewServer(h)
		p.servers = append(p.servers, srv)
		backends = append(backends, srv.URL)
	}
	rt, err := router.New(router.Options{Backends: backends})
	if err != nil {
		front.Close()
		p.close()
		return nil, err
	}
	p.rt = rt
	h := rt.Handler()
	proxy := tr.wrap("router", "router.proxy", []string{"client"}, h)
	// Remote-cache reads are on the request path and get their own span;
	// writes are queued behind the request and are left out.
	remote := tr.wrap("solvecache", "solvecache.remote_get", []string{"httpapi.handler"}, h)
	front.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !strings.HasPrefix(r.URL.Path, "/v1/cache/"):
			proxy.ServeHTTP(w, r)
		case r.Method == http.MethodGet:
			remote.ServeHTTP(w, r)
		default:
			h.ServeHTTP(w, r)
		}
	})
	front.Start()
	p.servers = append(p.servers, front)
	return p, nil
}

func (p *inProcess) close() {
	if p.rt != nil {
		p.rt.Close()
	}
	for _, s := range p.servers {
		s.Close()
	}
	for _, s := range p.stores {
		s.Close()
	}
	for _, e := range p.engines {
		_ = e.Close() // no request is in flight once the servers closed
	}
}

// cacheStats sums the solve-cache counters of every engine.
func (p *inProcess) cacheStats() solvecache.Stats {
	var t solvecache.Stats
	for _, e := range p.engines {
		addCounters(&t, e.Stats().Cache, 1)
	}
	return t
}

// addCounters adds sign times the counters the per-layer metrics read from
// s to t, folding every tier's stored entries into Entries.
func addCounters(t *solvecache.Stats, s solvecache.Stats, sign int64) {
	t.Hits += sign * s.Hits
	t.WarmStarts += sign * s.WarmStarts
	t.Misses += sign * s.Misses
	t.JointHits += sign * s.JointHits
	t.JointMisses += sign * s.JointMisses
	t.AnalyticHits += sign * s.AnalyticHits
	t.AnalyticMisses += sign * s.AnalyticMisses
	t.RobustHits += sign * s.RobustHits
	t.RobustMisses += sign * s.RobustMisses
	t.PlacementHits += sign * s.PlacementHits
	t.PlacementMisses += sign * s.PlacementMisses
	t.RemoteHits += sign * s.RemoteHits
	t.RemoteMisses += sign * s.RemoteMisses
	t.Entries += int(sign) * (s.Entries + s.JointEntries + s.AnalyticEntries + s.RobustEntries + s.PlacementEntries)
}

// traceRun replays the workload's first requests traced and reports the
// per-layer metrics.
func traceRun(ctx context.Context, w workload, seed int64, out string) (result, error) {
	tr := newTracer(w.name)
	p, err := startInProcess(tr, w.shards)
	if err != nil {
		return result{}, err
	}
	defer p.close()
	u := &unrolled{tr: tr, cache: solvecache.New()}
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()

	// Set-up, not traced: a fixed-fingerprint workload answers each
	// fingerprint once on both paths.
	if w.distinct > 0 {
		for _, r := range checkSet(w, seed) {
			if _, err := post(ctx, client, p.url, r, time.Now().Add(time.Minute)); err != nil {
				return result{}, fmt.Errorf("priming request %d: %w", r.index, err)
			}
			if _, err := u.handle(ctx, r); err != nil {
				return result{}, fmt.Errorf("priming request %d unrolled: %w", r.index, err)
			}
		}
	}
	u.acc = totals{}

	before := p.cacheStats()
	for i := 0; i < w.traced; i++ {
		r := w.request(seed, i)
		tr.setRequest(i)
		c := tr.begin("client", "client", 0)
		body, err := post(ctx, client, p.url, r, time.Now().Add(time.Minute))
		tr.end(c)
		if err != nil {
			return result{}, fmt.Errorf("request %d: %w", i, err)
		}
		got, err := parseSizing(r.path, body)
		if err != nil {
			return result{}, fmt.Errorf("request %d: %w", i, err)
		}
		unrolledBody, err := u.handle(ctx, r)
		if err != nil {
			return result{}, fmt.Errorf("request %d unrolled: %w", i, err)
		}
		again, err := parseSizing(r.path, unrolledBody)
		if err != nil {
			return result{}, fmt.Errorf("request %d unrolled: %w", i, err)
		}
		if again != got {
			return result{}, fmt.Errorf("request %d: the unrolled replay sized differently from the server, so the trace measured another program:\n http     %s\n unrolled %s",
				i, got, again)
		}
	}
	tr.setRequest(-1)
	after := p.cacheStats()
	replay := after
	addCounters(&replay, before, -1)

	if err := writeTrace(filepath.Join(out, "trace.json"), tr.spans); err != nil {
		return result{}, err
	}
	metrics, err := metricsOf(perLayer, layerMetrics(tr.spans, u.acc, replay, after.Entries, w.traced))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%-12s %d requests replayed over HTTP and unrolled, %d spans written to %s\n",
		w.name, w.traced, len(tr.spans), filepath.Join(out, "trace.json"))
	return result{Correct: true, Attempted: w.traced, Failed: 0, Metrics: metrics}, nil
}

func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetrics turns the spans, the unrolled replay's totals and the
// solve-cache counters over the replay into the per-layer metrics. Times
// are per request; shares name their base in README.md.
func layerMetrics(spans []span, a totals, c solvecache.Stats, entries, n int) map[string]float64 {
	self := selfNS(spans)
	var client, routerSelf, remoteSelf int64
	for _, s := range spans {
		switch s.Name {
		case "client":
			client += s.EndNS - s.StartNS
		case "router.proxy":
			routerSelf += self[s.ID]
		case "solvecache.remote_get":
			remoteSelf += self[s.ID]
		}
	}
	perReq := func(d time.Duration) float64 { return d.Seconds() * 1000 / float64(n) }
	share := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	rate := func(hits, misses int64) float64 { return share(float64(hits), float64(hits+misses)) }
	call := float64(a.call)
	lookups := float64(c.Hits + c.WarmStarts + c.Misses)
	return map[string]float64{
		"router.self_share":              share(float64(routerSelf), float64(client)),
		"router.remote_hit_ratio":        rate(c.RemoteHits, c.RemoteMisses),
		"httpapi.self_ms":                perReq(a.unrolled - a.call),
		"httpapi.decode_ms":              perReq(a.decode),
		"httpapi.encode_ms":              perReq(a.encode),
		"engine.self_ms":                 perReq(a.call - a.backend),
		"engine.fingerprint_us":          perReq(a.fingerprint) * 1000,
		"solvecache.hit_ratio.exact":     share(float64(c.Hits), lookups),
		"solvecache.hit_ratio.joint":     rate(c.JointHits, c.JointMisses),
		"solvecache.hit_ratio.analytic":  rate(c.AnalyticHits, c.AnalyticMisses),
		"solvecache.hit_ratio.robust":    rate(c.RobustHits, c.RobustMisses),
		"solvecache.hit_ratio.placement": rate(c.PlacementHits, c.PlacementMisses),
		"solvecache.warm_start_ratio":    share(float64(c.WarmStarts), lookups),
		"solvecache.cold_solves_per_req": float64(c.Misses) / float64(n),
		"solvecache.entries":             float64(entries),
		"solver.run_ms":                  perReq(a.solverRun),
		"solver.screen_share":            share(float64(a.screen), call),
		"core.prologue_share":            share(float64(a.prologue), call),
		"core.lp_share":                  share(float64(a.lp), call),
		"placement.dp_share":             share(float64(a.place-a.eval), float64(a.place)),
		"placement.partials_per_req":     float64(a.partials) / float64(n),
		"placement.pruned_ratio":         share(float64(a.pruned), float64(a.partials)),
		"sim.share":                      share(float64(a.sim), call),
		"sim.runs_per_req":               float64(a.simRuns) / float64(n),
		"sim.packets_per_s":              share(float64(a.packets), a.sim.Seconds()),
		"trace.coverage":                 share(float64(routerSelf+remoteSelf+a.unrolled.Nanoseconds()), float64(client)),
	}
}
