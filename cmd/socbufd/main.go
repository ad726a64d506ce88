// Command socbufd serves the buffer-sizing engine over HTTP: a long-running
// service wrapping internal/engine — the same request/response API the CLIs
// use — with request coalescing, a bounded in-flight limit, cache-backed
// concurrency and graceful shutdown. internal/httpapi holds the handlers;
// this binary only wires flags, the listener and the signal path.
//
//	socbufd -addr :8344 -max-inflight 16
//
// Endpoints (see DESIGN.md §5 and the README's "Running as a service"):
//
//	POST /v1/solve           run the methodology once; concurrent identical
//	                         requests coalesce into one underlying solve
//	POST /v1/sweep/budget    budget sweep; streams NDJSON rows as points
//	                         complete, then a summary line
//	POST /v1/sweep/scenario  scenario sweep; same streaming shape
//	POST /v1/placement       buffer-placement run; streams evals + summary
//	GET  /v1/stats           engine counters + solve-cache counters
//	GET  /v1/healthz         liveness
//	GET  /v1/readyz          drain-aware readiness (503 once draining)
//
// Responses: 400 for malformed/invalid requests, 503 (with Retry-After) when
// the in-flight bound is hit or the server is draining, 500 for solver
// failures.
//
// Memory: -cache-max-entries bounds every tier of the solve cache; past it
// a tier evicts its least recently used entry (DESIGN.md §5).
//
// Fleet mode (DESIGN.md §10): -remote-cache attaches a shared solve-cache
// sidecar (socbufrouter's /v1/cache endpoint) behind the local cache's
// robust and placement tiers — fail-open, so a dead sidecar costs
// recomputes, never availability. Exact sub-model solves stay local: a
// round trip costs more than the solve.
//
// Shutdown: SIGINT/SIGTERM flips readiness (so ring health checks route
// around the backend), stops admission, cancels in-flight requests (the
// cancellation threads down through the sweep workers, which finish their
// current point and exit), drains, then closes the listener. A repeated
// SIGTERM during the drain is ignored; a second SIGINT exits at once.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"socbuf/internal/cliutil"
	"socbuf/internal/engine"
	"socbuf/internal/httpapi"
	"socbuf/internal/solvecache"
)

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		parallel   = flag.Int("parallel", 0, "default worker goroutines per request (0 = GOMAXPROCS)")
		inflight   = flag.Int("max-inflight", 16, "max concurrently executing requests (0 = unbounded); excess requests get 503")
		cache      = flag.Bool("cache", true, "route every request through the shared solve cache")
		cacheBound = flag.Int("cache-max-entries", 4096, "entries kept per solve-cache tier, least recently used evicted first (0 = unbounded); bounds memory in a long-lived server fed client-chosen architectures")
		remote     = flag.String("remote-cache", "", "base URL of a shared solve-cache sidecar (e.g. http://127.0.0.1:8360/v1/cache); empty = local cache only")
		remoteTmo  = flag.Duration("remote-cache-timeout", 250*time.Millisecond, "per-lookup deadline against the remote cache; slower answers fall back to a local solve")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline")
	)
	flag.Parse()
	if *parallel < 0 {
		cliutil.Fatal("socbufd", fmt.Errorf("-parallel %d is negative; use 0 for GOMAXPROCS or a count >= 1", *parallel))
	}
	if *inflight < 0 {
		cliutil.Fatal("socbufd", fmt.Errorf("-max-inflight %d is negative; use 0 for unbounded", *inflight))
	}
	if *cacheBound < 0 {
		cliutil.Fatal("socbufd", fmt.Errorf("-cache-max-entries %d is negative; use 0 for unbounded", *cacheBound))
	}

	cfg := engine.Config{
		Workers:         *parallel,
		MaxInFlight:     *inflight,
		MaxCacheEntries: *cacheBound,
	}
	var remoteStore *solvecache.RemoteStore
	if *remote != "" {
		remoteStore = solvecache.NewRemoteStore(*remote, solvecache.RemoteOptions{Timeout: *remoteTmo})
		defer remoteStore.Close()
		cfg.RemoteCache = remoteStore
	}
	eng := engine.New(cfg)
	api := httpapi.NewServer(eng, *cache)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	cliutil.CloseSilentConnsOnShutdown(srv)

	ctx, stop := cliutil.ShutdownOnSignal()
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("socbufd: listening on %s (max-inflight %d, cache %v, remote-cache %q)", *addr, *inflight, *cache, *remote)

	select {
	case err := <-errc:
		cliutil.Fatal("socbufd", err)
	case <-ctx.Done():
	}

	log.Printf("socbufd: shutting down (drain timeout %v)", *drain)
	// Readiness first, while the listener still answers: the router's health
	// checks see the drain and stop routing here before requests start
	// bouncing off the closed engine.
	api.SetReady(false)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Engine next: admission stops, in-flight requests are cancelled and
	// drained, so the handlers unwind; then the listener closes and waits
	// for the connections to finish writing.
	engErr := eng.Shutdown(dctx)
	srvErr := srv.Shutdown(dctx)
	if err := errors.Join(engErr, srvErr); err != nil {
		cliutil.Fatal("socbufd", fmt.Errorf("unclean shutdown: %w", err))
	}
	log.Printf("socbufd: shutdown complete")
}
