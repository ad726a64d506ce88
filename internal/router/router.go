package router

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socbuf/internal/engine"
	"socbuf/internal/solvecache"
)

// maxRequestBody mirrors httpapi's bound: the router buffers each solve body
// (it must, to fingerprint it and to retry on a dead shard), so it enforces
// the same cap the backends do rather than a larger one.
const maxRequestBody = 8 << 20

// Options configures a Router. Zero values get the documented defaults.
type Options struct {
	// Backends are the socbufd base URLs ("http://host:port") forming the
	// ring. At least one is required.
	Backends []string
	// Replicas is the number of virtual nodes per backend (default 64 —
	// enough that a 2–8 shard fleet's key shares stay within a few percent
	// of even).
	Replicas int
	// HealthInterval is the period of the background /v1/readyz poll
	// (default 2s; negative disables the loop — proxy errors still mark
	// backends unhealthy, but nothing restores them, so only tests that
	// drive RefreshHealth themselves should disable it).
	HealthInterval time.Duration
	// Client issues the proxied and health-check requests (default: a
	// client with no overall timeout — sweeps stream for minutes — relying
	// on the inbound request's context for cancellation).
	Client *http.Client
	// Store is the shared solve-cache tier served under /v1/cache/ (nil =
	// a fresh solvecache.MemStore, which holds at most 64 MiB and evicts the
	// least recently used keys past that). Backends attach to it with
	// -remote-cache pointing at the router.
	Store solvecache.Store
}

// backend is one ring member: its base URL, the health bit the ring walk
// consults, and the requests routed to it.
type backend struct {
	base    string
	healthy atomic.Bool
	routed  atomic.Int64
}

// Router shards the socbufd solve endpoints across a fleet by normalised
// request fingerprint (DESIGN.md §10). Identical-fingerprint requests land on
// one shard, so the engine-level coalescing and cache locality that make the
// single-process service fast survive scale-out; the shared store under
// /v1/cache/ then lets distinct shards adopt each other's robust sizings and
// placement results for the overlap that fingerprint affinity cannot
// capture (requests that differ only in simulation seeds share one robust
// sizing).
type Router struct {
	backends  []*backend
	ring      *ring
	client    *http.Client
	store     solvecache.Store
	interval  time.Duration
	failovers atomic.Int64
	stop      chan struct{}
	stopOnce  sync.Once
}

// New builds a Router over opts.Backends and starts its health loop.
// Backends start healthy (the fleet usually comes up router-first); the first
// poll or the first failed proxy corrects any that are not.
func New(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	replicas := opts.Replicas
	if replicas == 0 {
		replicas = 64
	}
	if replicas < 1 {
		return nil, fmt.Errorf("router: replicas %d must be positive", opts.Replicas)
	}
	interval := opts.HealthInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	rt := &Router{
		client:   opts.Client,
		store:    opts.Store,
		interval: interval,
		stop:     make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if rt.store == nil {
		rt.store = solvecache.NewMemStore()
	}
	addrs := make([]string, len(opts.Backends))
	seen := map[string]bool{}
	for i, raw := range opts.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: backend %q is not an absolute URL", raw)
		}
		base := strings.TrimRight(raw, "/")
		if seen[base] {
			return nil, fmt.Errorf("router: duplicate backend %q", base)
		}
		seen[base] = true
		addrs[i] = base
		b := &backend{base: base}
		b.healthy.Store(true)
		rt.backends = append(rt.backends, b)
	}
	rt.ring = newRing(addrs, replicas)
	if interval > 0 {
		go rt.healthLoop()
	}
	return rt, nil
}

// Store exposes the shared cache tier (the same store Handler serves under
// /v1/cache/), so in-process fleets can attach engines to it directly.
func (rt *Router) Store() solvecache.Store { return rt.store }

// Close stops the health loop. It does not touch the backends.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }

func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), rt.interval)
			rt.RefreshHealth(ctx)
			cancel()
		}
	}
}

// RefreshHealth polls every backend's /v1/readyz once, concurrently, and
// updates the ring's health bits: 200 is ready, anything else — a draining
// 503, a refused connection — takes the backend out of rotation until a later
// poll restores it. The background loop calls this on its interval; tests and
// operators (via a router restart) can force it.
func (rt *Router) RefreshHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/readyz", nil)
			if err != nil {
				b.healthy.Store(false)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				b.healthy.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			b.healthy.Store(resp.StatusCode == http.StatusOK)
		}(b)
	}
	wg.Wait()
}

// Handler builds the router's route table — the same solve surface as a
// single socbufd, plus the fleet endpoints:
//
//	POST /v1/solve           sharded by SolveRequest fingerprint
//	POST /v1/sweep/budget    sharded by BudgetSweepRequest fingerprint
//	POST /v1/sweep/scenario  sharded by ScenarioSweepRequest fingerprint
//	POST /v1/placement       sharded by PlacementRequest fingerprint
//	GET  /v1/stats           per-shard stats + fleet-wide sums
//	GET  /v1/healthz         router liveness + ring membership
//	GET  /v1/readyz          200 while ≥1 backend is ready
//	*    /v1/cache/{key}     the shared solve-cache tier (StoreHandler)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", rt.proxy(fingerprintAs[engine.SolveRequest]))
	mux.HandleFunc("POST /v1/sweep/budget", rt.proxy(fingerprintAs[engine.BudgetSweepRequest]))
	mux.HandleFunc("POST /v1/sweep/scenario", rt.proxy(fingerprintAs[engine.ScenarioSweepRequest]))
	mux.HandleFunc("POST /v1/placement", rt.proxy(fingerprintAs[engine.PlacementRequest]))
	mux.HandleFunc("GET /v1/stats", rt.stats)
	mux.HandleFunc("GET /v1/healthz", rt.healthz)
	mux.HandleFunc("GET /v1/readyz", rt.readyz)
	mux.Handle("/v1/cache/", http.StripPrefix("/v1/cache", solvecache.StoreHandler(rt.store)))
	return mux
}

// fingerprinter maps a raw request body to its routing key.
type fingerprinter func(body []byte) string

// fingerprintAs decodes body as R and returns its normalised fingerprint —
// the same identity the backend coalesces and caches on, which is the whole
// point of routing by it. The decode here is deliberately lenient (the
// backend owns strict validation): a body the backend would reject still
// routes deterministically, by content hash, and collects its 400 from the
// shard.
func fingerprintAs[R interface{ Fingerprint() string }](body []byte) string {
	var req R
	if err := json.Unmarshal(body, &req); err == nil {
		return req.Fingerprint()
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// proxy buffers the request body, fingerprints it, and forwards it to the
// ring's backend for that key, streaming the response back flush-by-flush
// (the sweeps are NDJSON; rows must reach the client as points complete). A
// backend that cannot be reached is marked unhealthy and the request retries
// on the next ring walk — safe because nothing was forwarded — while an HTTP
// error from a reachable backend (including 503 backpressure with its
// Retry-After) passes through untouched: the shard owns that answer.
func (rt *Router) proxy(fp fingerprinter) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
			return
		}
		key := fp(body)
		tried := map[int]bool{}
		for {
			idx := rt.ring.pick(key, func(i int) bool {
				return !tried[i] && rt.backends[i].healthy.Load()
			})
			if idx < 0 {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable, errors.New("no ready backends"))
				return
			}
			b := rt.backends[idx]
			if rt.forward(w, r, b, body) {
				return
			}
			// Transport failure before any response byte: the shard is gone.
			// Take it out of rotation and walk on; the health loop restores
			// it when /v1/readyz answers again.
			b.healthy.Store(false)
			tried[idx] = true
			rt.failovers.Add(1)
		}
	}
}

// forward sends body to b and relays the response. It reports false only when
// the backend could not be reached at all (retryable); once any response
// arrives it is relayed verbatim and forward reports true.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, b *backend, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.base+r.URL.Path, strings.NewReader(string(body)))
	if err != nil {
		return false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// A cancelled inbound request also lands here; answering 503 to a
		// client that is gone is harmless, so no special case.
		return r.Context().Err() != nil
	}
	defer resp.Body.Close()
	b.routed.Add(1)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client gone; stop relaying
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return true
		}
	}
}

// ShardStats is one backend's slice of the fleet stats response.
type ShardStats struct {
	Backend string `json:"backend"`
	Healthy bool   `json:"healthy"`
	// Routed counts requests this router relayed to the backend (solves and
	// sweeps; stats fan-outs excluded).
	Routed int64 `json:"routed"`
	// Stats is the backend's own /v1/stats snapshot; nil when the backend
	// could not be reached (Error then says why).
	Stats *engine.Stats `json:"stats,omitempty"`
	Error string        `json:"error,omitempty"`
}

// FleetStats is the router's GET /v1/stats response: the per-shard snapshots
// and their counter sums. Fleet.CacheRates is recomputed from the summed
// cache counters, so it is the fleet-wide rate, not an average of rates.
type FleetStats struct {
	Backends  int          `json:"backends"`
	Ready     int          `json:"ready"`
	Failovers int64        `json:"failovers"`
	Fleet     engine.Stats `json:"fleet"`
	Shards    []ShardStats `json:"shards"`
}

// stats fans GET /v1/stats out to every backend concurrently and aggregates.
// Unreachable backends appear with an error instead of failing the fleet
// response — stats must work mid-incident.
func (rt *Router) stats(w http.ResponseWriter, r *http.Request) {
	out := FleetStats{Backends: len(rt.backends), Failovers: rt.failovers.Load()}
	out.Shards = make([]ShardStats, len(rt.backends))
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ss := ShardStats{Backend: b.base, Healthy: b.healthy.Load(), Routed: b.routed.Load()}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.base+"/v1/stats", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = rt.client.Do(req); err == nil {
					var es engine.Stats
					if err = json.NewDecoder(resp.Body).Decode(&es); err == nil {
						ss.Stats = &es
					}
					resp.Body.Close()
				}
			}
			if err != nil {
				ss.Error = err.Error()
			}
			out.Shards[i] = ss
		}(i, b)
	}
	wg.Wait()
	for _, ss := range out.Shards {
		if ss.Healthy {
			out.Ready++
		}
		if ss.Stats != nil {
			addStats(&out.Fleet, *ss.Stats)
		}
	}
	out.Fleet.CacheRates = out.Fleet.Cache.Rates()
	writeJSON(w, out)
}

// addStats accumulates one shard's counters into the fleet totals.
// Per-backend MeanWallMS is recombined solve-weighted so the fleet mean is
// the mean over all solves, not an average of shard means.
func addStats(dst *engine.Stats, s engine.Stats) {
	dst.Requests += s.Requests
	dst.Coalesced += s.Coalesced
	dst.SolveRuns += s.SolveRuns
	dst.SweepRuns += s.SweepRuns
	dst.SimRuns += s.SimRuns
	dst.PlacementRuns += s.PlacementRuns
	dst.Busy += s.Busy
	dst.InFlight += s.InFlight
	dst.Cache.Add(s.Cache)
	for name, bs := range s.Backends {
		if dst.Backends == nil {
			dst.Backends = map[string]engine.BackendStats{}
		}
		acc := dst.Backends[name]
		total := acc.Solves + bs.Solves
		if total > 0 {
			acc.MeanWallMS = (acc.MeanWallMS*float64(acc.Solves) + bs.MeanWallMS*float64(bs.Solves)) / float64(total)
		}
		acc.Solves = total
		acc.CacheHits += bs.CacheHits
		dst.Backends[name] = acc
	}
}

// memberJSON is one ring member in the healthz response.
type memberJSON struct {
	Backend string `json:"backend"`
	Healthy bool   `json:"healthy"`
	Routed  int64  `json:"routed"`
}

// healthz is router liveness plus ring membership — the operator's one-stop
// view of which shards the ring currently routes to.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	members := make([]memberJSON, len(rt.backends))
	for i, b := range rt.backends {
		members[i] = memberJSON{Backend: b.base, Healthy: b.healthy.Load(), Routed: b.routed.Load()}
	}
	writeJSON(w, struct {
		Status  string       `json:"status"`
		Members []memberJSON `json:"members"`
	}{"ok", members})
}

// readyz reports whether the fleet can serve: 200 while at least one backend
// is in rotation, 503 + Retry-After otherwise.
func (rt *Router) readyz(w http.ResponseWriter, r *http.Request) {
	for _, b := range rt.backends {
		if b.healthy.Load() {
			writeJSON(w, map[string]string{"status": "ready"})
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, errors.New("no ready backends"))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
