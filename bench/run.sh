#!/usr/bin/env bash
# Builds socbufd, socbufrouter and the socbufbench command from this
# checkout and runs socbufbench with the given arguments, e.g.
#
#   bash bench/run.sh --workload screen --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. Every build product, the Go build
# cache included, stays under .bench_build/; the traced run writes
# bench-out/trace.json.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/socbufd || ! -f bench/go.mod ]]; then
  echo "bench/run.sh: run from the root of a socbuf checkout" >&2
  exit 2
fi
root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
# Keep the go command's caches, temporary files and telemetry in the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
  XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/socbufd ./cmd/socbufrouter
(cd bench && go build -o "$out/bin/socbufbench" ./cmd/socbufbench)
exec "$out/bin/socbufbench" --bin "$out/bin" --out "$root/bench-out" "$@"
