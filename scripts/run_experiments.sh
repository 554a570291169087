#!/usr/bin/env bash
# Regenerates every table and figure of the FASCIA paper evaluation.
# Results land in results/<name>.txt; pass --full for paper-scale graphs.
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
BINS=(
  table1_networks
  fig02_templates
  fig03_unlabeled_times
  fig04_labeled_times
  fig05_motif_times
  fig06_memory_portland
  fig07_memory_road
  fig08_inner_scaling
  fig09_inner_vs_outer
  cmp_naive_moda
  fig10_error_enron
  fig11_error_hpylori
  fig12_motif_counts
  fig13_ppi_profiles
  fig14_social_profiles
  fig15_gdd
  fig16_gdd_agreement
  ext_distributed
  ext_adaptive
)
cargo build --release -p fascia-bench
for bin in "${BINS[@]}"; do
  echo "=== $bin ==="
  if cargo run --release -q -p fascia-bench --bin "$bin" -- "$@" \
      > "results/$bin.txt" 2> "results/$bin.log"; then
    tail -5 "results/$bin.txt"
  else
    echo "FAILED: see results/$bin.log"
  fi
done

# Engine metrics (fascia-obs/1 JSON) for representative workloads: one
# document per run under results/metrics/, via the CLI's --metrics json.
mkdir -p results/metrics
cargo build --release -p fascia-cli
METRIC_RUNS=(
  "portland U7-2 --iters 5"
  "enron U7-2 --iters 10"
  "road U10-1 --iters 5 --table hash"
  "gnp U5-2 --iters 10 --table improved"
)
for run in "${METRIC_RUNS[@]}"; do
  # shellcheck disable=SC2086
  set -- $run
  name="metrics_$1_$2"
  echo "=== $name ==="
  if cargo run --release -q -p fascia-cli -- count "$@" --metrics json \
      2> "results/metrics/$name.log" | grep '"schema":"fascia-obs/1"' \
      > "results/metrics/$name.json"; then
    wc -c < "results/metrics/$name.json" | xargs echo "  metrics bytes:"
  else
    echo "FAILED: see results/metrics/$name.log"
  fi
done

# Machine-readable perf document (fascia-perf/1) under results/perf/:
# the pinned suite via the perf runner, engine count cells and the
# service-batch cells (svc_throughput/clean, svc_throughput/chaos). It
# diffs against any archive with `perf compare`.
mkdir -p results/perf
echo "=== perf suite ==="
if cargo run --release -q -p fascia-bench --bin perf -- run \
    --out "results/perf/BENCH_$(date -u +%F).json" 2> results/perf/perf.log; then
  grep '^\[perf\]' results/perf/perf.log | tail -3
else
  echo "FAILED: see results/perf/perf.log"
fi

# Memory observability (fascia-mem/1) under results/mem/: representative
# runs with the counting allocator and access telemetry live, each in its
# own directory with the unified report rendered next to the raw
# documents (mem.json, hb.json, metrics.json, report.txt, report.html).
mkdir -p results/mem
MEM_RUNS=(
  "portland U7-2 --iters 5"
  "road U10-1 --iters 5 --table hash"
)
for run in "${MEM_RUNS[@]}"; do
  # shellcheck disable=SC2086
  set -- $run
  dir="results/mem/$1_$2"
  echo "=== mem $1 $2 ==="
  mkdir -p "$dir"
  if cargo run --release -q -p fascia-cli -- count "$@" --metrics json \
      --mem-stats --mem-out "$dir/mem.json" --heartbeat "$dir/hb.json" \
      2> "$dir/run.log" | grep '"schema":"fascia-obs/1"' \
      > "$dir/metrics.json"; then
    cargo run --release -q -p fascia-cli -- report "$dir" \
      > "$dir/report.txt" 2>> "$dir/run.log" \
      && echo "  report: $dir/report.html"
  else
    echo "FAILED: see $dir/run.log"
  fi
done

# Adaptive convergence trajectory: ext_adaptive emits its reports as
# JSON lines on stderr; keep the trajectory series under results/metrics/
# so convergence behaviour is diffable across runs.
if [ -f results/ext_adaptive.log ]; then
  grep '^\[json\] Ext: adaptive convergence trajectory' results/ext_adaptive.log \
    | sed 's/^\[json\] Ext: adaptive convergence trajectory //' \
    > results/metrics/adaptive_trajectory.json || true
  wc -c < results/metrics/adaptive_trajectory.json | xargs echo "  trajectory bytes:"
fi
echo "done; see results/ and results/metrics/"
