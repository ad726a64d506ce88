# Developer entry points; CI (.github/workflows) runs the same commands.

GO ?= go

# bench-compare inputs: previous and current bench outputs (see PERFORMANCE.md).
OLD ?= previous-results.txt
NEW ?= bench-results.txt

# The regression gate list (PERFORMANCE.md "The regression gate"): the
# headline sweep at the default 10%, the hot kernels (the simulator's
# netproc and screen-shaped runs, the placement DP and the whole placement
# with its survivor evaluations among them) at a looser 25% —
# micro-benchmarks in the microsecond range are noisier run-to-run than a
# 9-second sweep, and a real kernel regression shows up well past 25%.
# .github/workflows/bench.yml applies the same list nightly.
BENCH_GATES = \
	-gate 'BenchmarkSweep32' \
	-gate 'BenchmarkSolveSingleModel=25' \
	-gate 'BenchmarkSolveJointCapped=25' \
	-gate 'BenchmarkCappedSolve/=25' \
	-gate 'BenchmarkRobustSweep=25' \
	-gate 'BenchmarkFleetThroughput/=25' \
	-gate 'BenchmarkAnalyticSolve=25' \
	-gate 'BenchmarkRobustMatrix=25' \
	-gate 'BenchmarkSimNetproc$$=25' \
	-gate 'BenchmarkSimScreen=25' \
	-gate 'BenchmarkPlacementDP/=25' \
	-gate 'BenchmarkPlace/=25'

.PHONY: build test race bench bench-test bench-compare profile lint fma-check fmt scenario-smoke serve-smoke placement-smoke robust-smoke fuzz-smoke fleet-smoke cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The backend gates (internal/solver) run real methodology sweeps; under
# the race detector they need more than the 10m default per-package budget
# on small machines.
race:
	$(GO) test -race -timeout 25m ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Vet and test the end-to-end benchmark's own module (bench/, see
# bench/README.md). It compiles against the engine, cache, HTTP and router
# packages, but the root ./... patterns never reach a nested module.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Compare two bench runs and fail on gated regressions (BENCH_GATES above) —
# the same list the nightly workflow applies. Produce the inputs with e.g.
#   make bench > bench-results.txt
#   make bench-compare OLD=previous-results.txt NEW=bench-results.txt
bench-compare:
	$(GO) run ./cmd/benchdiff $(BENCH_GATES) -max-regress 10 $(OLD) $(NEW)

# Profile one benchmark: CPU + heap pprof and the top-10 flat listing for
# each, e.g.
#   make profile BENCH=BenchmarkSolveJointCapped PKG=./internal/ctmdp
# go test's profiling flags need a single package, so PKG must name the one
# holding BENCH (default: the root package, home of the end-to-end sweeps).
# Artifacts land in ./profiles/. PERFORMANCE.md "Profiling methodology"
# walks through reading the output.
BENCH ?= BenchmarkSweep32
PKG ?= .
profile:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench '^$(BENCH)$$' -benchmem \
		-cpuprofile $(CURDIR)/profiles/$(BENCH).cpu.pprof \
		-memprofile $(CURDIR)/profiles/$(BENCH).mem.pprof \
		-o $(CURDIR)/profiles/$(BENCH).test $(PKG)
	@echo "== cpu: top 10 flat =="
	$(GO) tool pprof -top -nodecount=10 profiles/$(BENCH).test profiles/$(BENCH).cpu.pprof
	@echo "== heap (alloc_space): top 10 flat =="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		profiles/$(BENCH).test profiles/$(BENCH).mem.pprof

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# No implicit fused multiply-add in the placement price and the queueing
# kernels it mirrors (ROADMAP item 12): Go may fuse x*y + z into one
# instruction on arm64, which rounds once where amd64 rounds twice, so the
# goldens recorded on amd64 would move there. Each product that feeds an
# addition is written float64(x*y), which forces the rounding. The check
# compiles both packages for arm64 (no arm64 host needed) and fails on any
# fused instruction in the listing.
FMA_PKGS = ./internal/placement ./internal/queueing
fma-check:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$out"; exit 1; }; \
	fused=$$(echo "$$out" | grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'); \
	if [ -n "$$fused" ]; then \
		echo "fma-check: fused multiply-add in $(FMA_PKGS) on arm64:"; echo "$$fused"; exit 1; \
	fi; \
	echo "fma-check: no fused multiply-add in $(FMA_PKGS) on arm64"

fmt:
	gofmt -w .

# Tiny end-to-end pass through the scenario engine, once per solver
# backend: one preset + one generated topology, 1 seed, short horizon.
# Catches generator, traffic-wiring or backend-dispatch regressions in
# seconds; CI runs it on every push.
scenario-smoke:
	@for m in exact analytic hybrid robust; do \
		echo "== scenario-smoke ($$m) =="; \
		$(GO) run ./cmd/experiments scenario-sweep -method $$m \
			-scenarios twobus,chain6-bursty -budget 48 -iters 2 -seeds 1 -horizon 600 -parallel 2 \
			|| exit 1; \
	done

# Tiny end-to-end pass through the buffer-placement DP, once per solver
# backend: run a placement on one registry scenario with quick evaluation
# knobs and assert the frontier is non-empty. Catches enumeration, pricing,
# contraction or refinement regressions in seconds; CI runs it on every
# push next to scenario-smoke and serve-smoke.
placement-smoke:
	@for m in exact analytic hybrid; do \
		echo "== placement-smoke ($$m) =="; \
		out=$$($(GO) run ./cmd/socbuf -scenario chain6 -place -method $$m \
			-refine-top 1 -iters 2 -horizon 400 -parallel 2 -json) || exit 1; \
		echo "$$out" | grep -q '"frontier": \[' || { \
			echo "placement-smoke ($$m): empty frontier"; echo "$$out"; exit 1; }; \
		echo "$$out" | grep -q '"chosen":' || { \
			echo "placement-smoke ($$m): no chosen placement"; echo "$$out"; exit 1; }; \
	done

# Tiny end-to-end pass through the socbufd service: build, start, curl one
# /v1/solve per solver backend (plus the unknown-method 400 path) and
# /v1/stats with its per-backend counters, SIGTERM, assert a clean graceful
# shutdown. CI runs it on every push next to scenario-smoke.
serve-smoke:
	GO="$(GO)" sh scripts/serve-smoke.sh

# End-to-end fleet pass (DESIGN.md §10): router + two shards sharing the
# remote cache tier, cross-shard remote-cache hit, drain-aware failover,
# clean shutdown. CI runs it on every push next to serve-smoke.
fleet-smoke:
	GO="$(GO)" sh scripts/fleet-smoke.sh

# Tiny end-to-end pass through the robust backend: a quick robust-sweep over
# two registry scenarios, asserting the chance-constraint yield columns made
# it to the JSON output. Catches sampler, screening or selection regressions
# in seconds; CI runs it on every push next to scenario-smoke.
robust-smoke:
	@echo "== robust-smoke =="
	@out=$$($(GO) run ./cmd/experiments robust-sweep \
		-scenarios twobus,chain6 -quick -samples 16 -parallel 2 -json) || exit 1; \
	echo "$$out" | grep -q '"yield":' || { \
		echo "robust-smoke: no yield in output"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q '"yieldLow":' || { \
		echo "robust-smoke: no Wilson bound in output"; echo "$$out"; exit 1; }

# Brief run of every native fuzz target (strict-parser robustness — the
# uncertainty-spec decoder and the two CLI list parsers — the blocking
# recurrence's oracle gate against the big.Float MM1K form, the remote
# exact-payload decoder, which must miss or yield probabilities, every
# remote tier's lookup, which must miss or adopt a payload its tier
# accepts, and the architecture JSON decoder feeding the simulator, whose
# runs must conserve packets). Ten seconds per target is enough to shake
# out panics and round-trip violations on new code; the targets also run
# as plain tests (corpus seeds) under make test.
fuzz-smoke:
	@for t in FuzzParseSpec=./internal/uncertain \
		FuzzParseMethods=./internal/experiments \
		FuzzParseCatalogue=./internal/placement \
		FuzzBlockingRecurrence=./internal/queueing \
		FuzzRemotePayload=./internal/solvecache \
		FuzzArchJSON=./internal/sim; do \
		name=$${t%=*}; pkg=$${t#*=}; \
		echo "== fuzz-smoke ($$name) =="; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime 10s $$pkg || exit 1; \
	done

# Per-package coverage floors on the solver seam, the uncertainty model, the
# solve cache, the engine, the CTMDP solver under the exact backend, the
# linear-algebra kernel, the closed-form queueing oracles, the paper's
# methodology, the experiment runners, the scenario registry, the
# simulator and the placement DP. Starting
# coverage at the floors' introduction
# (2026-08): internal/solver 80.3%, internal/uncertain 92.1%; (2026-10,
# before the generic cache tier replaced cache rotation): internal/solvecache
# 84.6%, internal/engine 88.1–88.5% (run to run); (2026-10, once the capped
# LP had one warm-started solve path): internal/ctmdp 89.5%; (2026-10, once
# internal/linalg became the one home of stationary solves): internal/linalg
# 92.6% (92.5% before that move); (2026-10, once
# the code no entry point reached was deleted): internal/queueing 97.4%,
# internal/core 82.6%; (2026-10, once every run took the one cached solve
# path): internal/experiments 69.1% (67.6% before), internal/scenario 86.7%
# (86.4% before); (2026-10, once a fixed slot set replaced the event heap):
# internal/sim 96.1% (94.6% before); (2026-10, once the placement DP merged
# one component group at a time): internal/placement 91.6% (91.4% before).
# Re-measured (2026-10) once the LP referee, the CSR layer and linalg's
# test-only helpers were deleted: internal/ctmdp 93.9% (93.9% before),
# internal/linalg 97.2% (97.4% before); both floors kept. Re-measured
# (2026-10) once placement ran one evaluation per bypass set and the
# placement tier stored its payloads deflated: internal/placement 92.0%
# (91.7% before), internal/solvecache 91.3% (90.3% before); both floors
# kept.
# The floors sit a few points below so honest
# refactors don't trip them, but a test-free feature dump — or a refactor
# that lands by deleting tests — does.
cover:
	@set -e; \
	for spec in internal/solver:75 internal/uncertain:85 internal/solvecache:80 internal/engine:83 \
		internal/ctmdp:85 internal/linalg:88 internal/queueing:93 internal/core:78 \
		internal/experiments:65 internal/scenario:83 internal/sim:90 internal/placement:88; do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		line=$$($(GO) test -cover ./$$pkg/ | tail -1); \
		echo "$$line"; \
		pct=$$(echo "$$line" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		[ -n "$$pct" ] || { echo "cover: no coverage line for $$pkg"; exit 1; }; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p + 0 >= f + 0) ? 0 : 1 }' || { \
			echo "cover: $$pkg coverage $$pct% below floor $$floor%"; exit 1; }; \
	done
