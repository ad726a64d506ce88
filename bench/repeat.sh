#!/usr/bin/env bash
# Runs the benchmark N times on one workload with one seed and prints, for
# every metric, its median and (max-min)/median over the N runs. Use it to
# see how far a metric moves between identical runs before reading anything
# into a difference, and to check BENCHMARK.json's bounds against it.
#
#   bash bench/repeat.sh 5 screen            # 5 timed runs, seed 1
#   bash bench/repeat.sh 3 hot-fleet 7 1     # 3 traced runs, seed 7
#
# Run it from the root of the checkout; it needs python3 for the summary.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: bash bench/repeat.sh N WORKLOAD [SEED [TRACE]]" >&2
  exit 2
fi
n=$1 workload=$2 seed=${3:-1} trace=${4:-0}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

lines=()
for ((i = 1; i <= n; i++)); do
  line=$(bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
  echo "run $i: $line" >&2
  lines+=("$line")
done

summary=$(
  cat <<'EOF'
import json, statistics, sys
runs = [json.loads(a) for a in sys.argv[1:]]
failed = sum(r["failed"] for r in runs)
print(f"{len(runs)} runs, {failed} failed requests, all correct: {all(r['correct'] for r in runs)}")
for name in sorted(runs[0]["metrics"]):
    unit = runs[0]["metrics"][name]["unit"]
    v = [r["metrics"][name]["value"] for r in runs]
    med = statistics.median(v)
    spread = (max(v) - min(v)) / med if med else 0.0
    print(f"{name:32s} median {med:14.6g} {unit:6s} (max-min)/median {spread:7.4f}")
EOF
)
python3 -c "$summary" "${lines[@]}"
