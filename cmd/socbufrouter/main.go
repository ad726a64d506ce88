// Command socbufrouter fronts a fleet of socbufd backends (DESIGN.md §10):
// it shards the solve endpoints across the fleet by normalised request
// fingerprint on a consistent-hash ring, so the engine-level request
// coalescing and cache locality that make a single socbufd fast survive
// scale-out, and it hosts the fleet's shared solve-cache tier.
//
//	socbufrouter -addr :8360 -backends http://127.0.0.1:8344,http://127.0.0.1:8345
//
// Each backend should attach to the shared tier with
// `-remote-cache http://<router>/v1/cache`, letting shards adopt each
// other's robust sizings and placement results for the overlap fingerprint
// affinity cannot capture (fail-open: a dead router costs the shards
// recomputes, never availability). The tier holds at most 64 MiB, evicting
// the least recently used keys past that.
//
// Endpoints (the README's "Running a fleet"):
//
//	POST /v1/solve           sharded by fingerprint; identical requests
//	                         land on one shard and coalesce there
//	POST /v1/sweep/budget    sharded likewise; NDJSON streamed through
//	POST /v1/sweep/scenario  sharded likewise
//	POST /v1/placement       sharded likewise
//	GET  /v1/stats           per-shard stats + fleet-wide sums
//	GET  /v1/healthz         router liveness + ring membership
//	GET  /v1/readyz          200 while ≥1 backend is ready
//	*    /v1/cache/{key}     the shared solve-cache tier
//
// Ring membership is health-checked against each backend's drain-aware
// /v1/readyz, so a draining shard leaves the ring before its first 503; a
// shard that cannot be reached at all fails over to the next ring member
// mid-request. Backend 503 backpressure (with its Retry-After) passes
// through untouched.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"socbuf/internal/cliutil"
	"socbuf/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":8360", "listen address")
		backends = flag.String("backends", "", "comma-separated socbufd base URLs (required), e.g. http://127.0.0.1:8344,http://127.0.0.1:8345")
		replicas = flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = the default 64)")
		health   = flag.Duration("health-interval", 2*time.Second, "period of the /v1/readyz ring health poll")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline")
	)
	flag.Parse()
	if *backends == "" {
		cliutil.Fatal("socbufrouter", errors.New("-backends is required (comma-separated socbufd base URLs)"))
	}
	if *health <= 0 {
		cliutil.Fatal("socbufrouter", fmt.Errorf("-health-interval %v must be positive", *health))
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	rt, err := router.New(router.Options{
		Backends:       urls,
		Replicas:       *replicas,
		HealthInterval: *health,
	})
	if err != nil {
		cliutil.Fatal("socbufrouter", err)
	}
	defer rt.Close()
	// Seed the ring's health bits before accepting traffic so a backend that
	// is already down never sees the first requests.
	hctx, hcancel := context.WithTimeout(context.Background(), *health)
	rt.RefreshHealth(hctx)
	hcancel()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	cliutil.CloseSilentConnsOnShutdown(srv)

	ctx, stop := cliutil.ShutdownOnSignal()
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("socbufrouter: listening on %s, %d backends", *addr, len(urls))

	select {
	case err := <-errc:
		cliutil.Fatal("socbufrouter", err)
	case <-ctx.Done():
	}

	log.Printf("socbufrouter: shutting down (drain timeout %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		cliutil.Fatal("socbufrouter", fmt.Errorf("unclean shutdown: %w", err))
	}
	log.Printf("socbufrouter: shutdown complete")
}
