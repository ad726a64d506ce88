// Package cliutil holds the flag wiring shared by the CLIs (cmd/socbuf,
// cmd/experiments, cmd/socsim, cmd/socbufd), and the shutdown wiring the two
// servers (cmd/socbufd, cmd/socbufrouter) share. Before this package
// existed, the -parallel/-cache/-cache-stats group was copied per CLI and
// had drifted — only one binary validated the worker count. The CLIs stay
// thin: they parse flags with these helpers and hand typed requests to
// internal/engine.
package cliutil

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"

	"socbuf/internal/engine"
	"socbuf/internal/solver"
	"socbuf/internal/uncertain"
)

// CommonFlags is the flag group every solve-capable CLI shares.
type CommonFlags struct {
	// Parallel bounds the worker pool (0 = GOMAXPROCS, 1 = serial).
	Parallel int
	// Cache shares one solve cache across everything the invocation runs.
	Cache bool
	// CacheStats prints the cache counters at the end (implies Cache).
	CacheStats bool
	// JSON selects machine-readable output for sweep results.
	JSON bool
}

// AddCommonFlags registers the shared -parallel/-cache/-cache-stats/-json
// group on fs (the default CommandLine set when fs is nil).
func AddCommonFlags(fs *flag.FlagSet) *CommonFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	c := &CommonFlags{}
	fs.IntVar(&c.Parallel, "parallel", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&c.Cache, "cache", false, "share a solve cache across all solves (sweeps prewarm it)")
	fs.BoolVar(&c.CacheStats, "cache-stats", false, "print solve-cache hit/miss counters (implies -cache)")
	fs.BoolVar(&c.JSON, "json", false, "emit sweep results as JSON instead of a table")
	return c
}

// Validate normalises the group after parsing: a negative worker count is
// rejected uniformly (previously only one CLI checked it), and -cache-stats
// implies -cache.
func (c *CommonFlags) Validate() error {
	if c.Parallel < 0 {
		return fmt.Errorf("cliutil: -parallel %d is negative; use 0 for GOMAXPROCS or a count >= 1", c.Parallel)
	}
	if c.CacheStats {
		c.Cache = true
	}
	return nil
}

// UseCache reports whether the invocation asked for the solve cache.
func (c *CommonFlags) UseCache() bool { return c.Cache || c.CacheStats }

// SetFlags returns the names of the flags the user passed explicitly on fs
// (nil = the default CommandLine set) — the CLIs' "explicit flags override
// scenario values" device.
func SetFlags(fs *flag.FlagSet) map[string]bool {
	if fs == nil {
		fs = flag.CommandLine
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// Fatal prints err prefixed with the program name and exits — the shared
// CLI error epilogue. Usage-class failures (engine.ErrInvalidRequest:
// unknown preset/scenario/policy, conflicting fields…) exit 2, matching the
// flag package's usage-error convention and the pre-engine CLIs' unknown
// -arch/-policy paths; runtime failures exit 1.
func Fatal(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	if errors.Is(err, engine.ErrInvalidRequest) {
		os.Exit(2)
	}
	os.Exit(1)
}

// StatsWriter keeps stdout machine-readable under -json: side tables (cache
// stats) move to stderr; table mode keeps them on stdout.
func (c *CommonFlags) StatsWriter() io.Writer {
	if c.JSON {
		return os.Stderr
	}
	return os.Stdout
}

// PrintJSON writes v to stdout as one indented JSON document, exiting
// through Fatal on failure — the CLIs' shared -json printer.
func PrintJSON(prog string, v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		Fatal(prog, err)
	}
}

// PresetNames documents the architecture presets the engine resolves, for
// flag help strings.
const PresetNames = "figure1 | twobus | netproc"

// AddMethodFlag registers the shared -method flag (solver backend
// selection) on fs (nil = the default CommandLine set). All three CLIs use
// it, so the help text — and, through the engine's validation, the
// unknown-method error — is identical everywhere. The empty default defers
// to scenario-pinned methods and the engine's exact fallback.
func AddMethodFlag(fs *flag.FlagSet) *string {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.String("method", "", "solver backend: "+solver.MethodList()+" (default exact; see README \"Choosing a solver method\")")
}

// RobustFlags is the -samples/-confidence/-rate-sigma/-uncertainty-seed
// group tuning the robust backend's Monte-Carlo chance constraint.
type RobustFlags struct {
	Samples    int
	Confidence float64
	RateSigma  float64
	Seed       int64
}

// AddRobustFlags registers the robust-backend tuning group on fs (nil = the
// default CommandLine set). Zero/unset values inherit the spec defaults
// (internal/uncertain), so the group is inert unless -method robust runs.
func AddRobustFlags(fs *flag.FlagSet) *RobustFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	r := &RobustFlags{}
	fs.IntVar(&r.Samples, "samples", 0, "robust backend: Monte-Carlo perturbation samples (0 = default 64)")
	fs.Float64Var(&r.Confidence, "confidence", 0, "robust backend: chance-constraint confidence in [0,1) (0 = default 0.95)")
	fs.Float64Var(&r.RateSigma, "rate-sigma", 0, "robust backend: lognormal rate perturbation sigma (0 = default 0.2)")
	fs.Int64Var(&r.Seed, "uncertainty-seed", 0, "robust backend: sampler seed (0 = default 1)")
	return r
}

// Spec assembles the uncertainty spec the flag group describes — nil when
// no flag in the group was set, so scenario-attached specs are not
// clobbered by defaults.
func (r *RobustFlags) Spec(set map[string]bool) *uncertain.Spec {
	if !set["samples"] && !set["confidence"] && !set["rate-sigma"] && !set["uncertainty-seed"] {
		return nil
	}
	return &uncertain.Spec{
		Samples:    r.Samples,
		Confidence: r.Confidence,
		RateSigma:  r.RateSigma,
		Seed:       r.Seed,
	}
}

// CloseSilentConnsOnShutdown makes srv.Shutdown close connections that were
// accepted but have not sent a request byte yet. Shutdown otherwise counts
// such a connection (http.StateNew) as active for up to 5 s — a client's
// pre-opened keep-alive connection stalls the whole drain that long. A
// connection accepted once shutdown has begun is closed on arrival. The
// helper owns srv.ConnState.
func CloseSilentConnsOnShutdown(srv *http.Server) {
	var (
		mu      sync.Mutex
		silent  = map[net.Conn]struct{}{}
		closing bool
	)
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(silent, c)
		case closing:
			c.Close()
		default:
			silent[c] = struct{}{}
		}
	}
	srv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		closing = true
		for c := range silent {
			c.Close()
		}
	})
}
