// Package socbuf reproduces "Buffer Insertion for Bridges and Optimal
// Buffer Sizing for Communication Sub-System of Systems-on-Chip"
// (Kallakuri, Doboli, Feinberg — DATE 2005) as a Go library.
//
// The repository is organised bottom-up:
//
//   - internal/linalg                     — dense LU, linear solves and
//     the dense CTMC stationary solve the tests use as a referee;
//   - internal/queueing                   — M/M/1/K closed-form oracles;
//   - internal/arch, internal/graph       — the SoC communication model
//     (buses, processors, bridges, flows) and the bridge-buffer splitting
//     of the paper's §2;
//   - internal/trace, internal/sim        — traffic sources and the
//     continuous-time discrete-event simulator;
//   - internal/ctmdp                      — the CTMDP occupation-measure
//     programs, solved by Howard policy iteration with a dual certificate
//     on every answer, K-switching policies, and the measure→capacity
//     translation;
//   - internal/nonlinear                  — the un-split coupled quadratic
//     system and the solvers that fail on it;
//   - internal/solvecache                 — the content-addressed solve
//     cache: sub-model solves shared across a sweep's points, and robust
//     sizings and placement results shared fleet-wide through the router
//     (DESIGN.md §4 records the fingerprint contract, §10 the remote
//     tier);
//   - internal/parallel                   — the deterministic worker pool
//     behind every sweep fan-out;
//   - internal/core, internal/policy      — the methodology loop (exposed
//     one iteration at a time as core.Stepper) and the timeout baseline's
//     threshold;
//   - internal/solver                     — the table of solver backends
//     every entry point dispatches through: "exact" (the CTMDP path),
//     "analytic" (closed-form M/M/1/K blocking + marginal-allocation
//     greedy, no LP, ~150× faster) and "hybrid" (analytic screening with
//     gated exact refinement, same sizing as exact) — DESIGN.md §6
//     records the backend contract;
//   - internal/placement                  — buffer insertion as a decision
//     variable: a Van Ginneken-style dynamic program over the bus graph
//     decides, per bridge, whether to insert a decoupling buffer pair (and
//     of which catalogue type) or to bypass the bridge, contracting its
//     buses into one arbitration domain; frontier survivors are screened
//     analytically and refined with the chosen backend — DESIGN.md §7
//     records the placement contract;
//   - internal/scenario                   — the scenario engine: seeded
//     chain/star/tree/mesh topology generators, pluggable traffic models
//     (Poisson / rate-preserving ON-OFF), and the registry of named
//     scenarios the sweep engines fan out over;
//   - internal/experiments                — regeneration of Figure 3,
//     Table 1, the §2 demo and the §3 headline ratios, plus the parallel
//     budget- and scenario-sweep engines and the sweep planner that
//     fingerprints points up front and prewarms the cache;
//   - internal/engine, internal/cliutil   — the unified solve service
//     behind every entry point (typed solve/sweep/simulate/placement
//     requests, coalescing, bounded admission, per-request cancellation,
//     graceful drain — DESIGN.md §5) and the flag wiring the CLI clients
//     share; cmd/socbufd serves the same API over HTTP with NDJSON sweep
//     and placement-evaluation streaming.
//
// Each bus's stationary distribution is read off the LU factors of policy
// iteration's last policy evaluation and checked by the answer's dual
// certificate (DESIGN.md §8); nothing recomputes it afterwards. The tests
// referee it with a dense solve of the policy-induced chain
// (linalg.StationaryDense). No model exceeds ctmdp.MaxStates = 81 states.
//
// See README.md for a tour (including "Choosing a solver method" and
// "Buffer placement"), DESIGN.md for the system inventory and modelling
// decisions (§4: the solve-cache fingerprint contract; §6: the solver
// backend contract; §7: the placement contract), EXPERIMENTS.md for
// paper-vs-measured results, and PERFORMANCE.md for the benchmark
// methodology and the measured solve-cache, backend and placement-DP
// numbers. The benchmarks in bench_test.go regenerate every table and
// figure.
package socbuf

// Version identifies the reproduction release.
const Version = "1.6.0"
