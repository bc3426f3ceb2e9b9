#!/usr/bin/env bash
# Builds the harness once and runs every workload untraced, then traced,
# each in a fresh process (a clean obs.Default, a per-workload peak RSS).
# Writes results/bench/<workload>.json, <workload>.traced.json and
# <workload>.trace.json, the printed tables next to them, and all.json:
# every report of the set in one document, each stamped with commit, go
# version, nproc, GOMAXPROCS and seed. Exits non-zero when any
# correctness check failed.
#
#   SEED=2 RUN_SECONDS=20 benchmark/run.sh
#   go run ./benchmark -compare old/all.json results/bench/all.json
set -u
cd "$(dirname "$0")/.."

seed=${SEED:-1}
seconds=${RUN_SECONDS:-20}
out=results/bench
mkdir -p "$out"
go build -o "$out/benchmark" ./benchmark || exit 1
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

status=0
: > "$out/all.json"
for w in spawn_tree grid_steal service_jobs des_paper des_scale; do
  for trace in 0 1; do
    name=$w
    [ "$trace" = 1 ] && name=$w.traced
    rm -f "$out/$name.json"
    if ! "$out/benchmark" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --out "$out/$name.json" > "$out/$name.txt"; then
      echo "run.sh: $name failed (see $out/$name.txt)" >&2
      status=1
    fi
    [ -f "$out/$name.json" ] && cat "$out/$name.json" >> "$out/all.json"
    sed -n '1p' "$out/$name.txt"
  done
done
echo "run.sh: wrote $out/all.json"
exit $status
