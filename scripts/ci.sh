#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere; mirrors what a hosted pipeline would check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== cargo clippy (workspace, all targets, deny warnings) ==="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "=== cargo doc (workspace, deny warnings) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "=== cargo test ==="
cargo test -q --workspace --offline

# The workspace run above already includes these, but the resilience
# gate is called out explicitly so a failure is unmistakable: adversarial
# input must never panic, and checkpoint resume must be bit-for-bit. The
# resilience suites inject their faults through the chaos schedule
# (`panic_at`, `cancel_at`, `stall`), so its unit tests run here too.
echo "=== resilience & fault-injection suites ==="
cargo test -q --offline --test resilience --test fault_injection
cargo test -q --offline -p fascia-core --lib -- chaos::

# Release-mode kernel bitwise gate: the suite above runs debug builds,
# but the kernel's vertex-blocked MAC and the hashed layout's home-window
# row gather are vectorized only under optimization. The node-level
# proptest, the entry-point golden and the whole fascia-table test suite
# (the window-gather proptest and the contract tests of the one
# `RowBatch` constructor) must also hold bit for bit in a release build.
echo "=== release-mode kernel bitwise gate ==="
cargo test -q --release --offline -p fascia-core --lib -- \
  kernel::tests::cut_batch_matches_scalar_reference
cargo test -q --release --offline -p fascia-table --lib
cargo test -q --release --offline --test kernel_equivalence

# Observability gate: a real count run with --trace must produce valid
# Perfetto-loadable JSON (parsed with the depth-capped parser, monotone
# per-tid timestamps), the heartbeat file must keep its stable shape,
# results must be bitwise identical with tracing on/off/overflowing,
# and the Prometheus rendering must match the golden file.
echo "=== tracing, heartbeat & exposition-format gates ==="
cargo test -q --offline --test tracing
cargo test -q --offline -p fascia-cli --test cli -- \
  trace_flag_writes_valid_perfetto_json \
  heartbeat_file_has_stable_shape \
  metrics_prom_emits_exposition_format \
  metrics_json_carries_run_metadata_and_trace_summary \
  trace_does_not_change_the_estimate
cargo test -q --offline -p fascia-obs --test prom_golden --test stress

# Telemetry-plane gate: the fascia-events/1 golden file must round-trip
# through the depth-capped parser, and the admin endpoint must survive
# its hardening suite (oversized lines, slow-loris, concurrent scrapes
# during a chaos soak with byte-identical replay).
echo "=== event-log & admin-endpoint gates ==="
cargo test -q --offline -p fascia-svc --test events_golden --test admin
cargo test -q --offline -p fascia-cli --test admin_e2e

# Performance gates: the fascia-perf/1 schema and Mann–Whitney compare
# rules, profiler result-identity invariants, and a 1-rep smoke of the
# pinned suite against the checked-in baseline. A single rep cannot
# support the significance test, so compare falls back to the ratio rule;
# the loose 2x threshold catches step-change regressions, not noise.
echo "=== perf schema & profiler gates ==="
cargo test -q --offline --test profiler
cargo test -q --offline -p fascia-bench --test perf

# The repository benchmark's own unit tests (its statistics, schedule,
# /proc parsing and span bookkeeping): every perfbench claim rests on
# them, and the workspace run above does not reach them — perfbench is
# a package of its own.
echo "=== perfbench unit tests ==="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "=== perf smoke gate ==="
cargo build --release -q -p fascia-bench --bin perf --offline
mkdir -p results/perf
./target/release/perf run --smoke --reps 1 --warmup 1 --quiet \
  --out results/perf/smoke.json
./target/release/perf compare scripts/perf_baseline.json results/perf/smoke.json \
  --threshold 2.0

# Service-batch cells: one clean and one chaos batch of jobs through the
# resident counting service, one rep each. This is their only CI run; the
# gate is that both cells complete and land in the document. The chaos
# batch's injected worker panics print to stderr, so it goes to a log.
echo "=== perf service-batch cells ==="
./target/release/perf run --filter svc_throughput --reps 1 --warmup 0 --quiet \
  --out results/perf/svc.json 2> results/perf/svc.log \
  || { tail -20 results/perf/svc.log; exit 1; }
grep -q '"svc_throughput/clean"' results/perf/svc.json
grep -q '"svc_throughput/chaos"' results/perf/svc.json

# Peak-table-memory gate: table bytes are deterministic, so unlike the
# 1-rep time smoke above this bound does not drift with the host. U12-2
# on the Portland stand-in peaks at 505.7 MB in min-peak evaluation order;
# the active-then-passive post-order it replaced peaked at 578.0 MB.
echo "=== peak table memory gate ==="
cargo build --release -q -p fascia-cli --offline
PEAK=$(FASCIA_SCALE=64 ./target/release/fascia count portland U12-2 --table improved \
  --iters 1 --parallel serial | sed -n 's/^peak table bytes: //p')
echo "portland U12-2 improved: peak table bytes $PEAK (bound 520000000)"
[ "$PEAK" -le 520000000 ]

# Memory-observability gate: a tiny counting run under --mem-stats must
# emit a fascia-mem/1 document (its own stdout line AND the --mem-out
# file), and `fascia report` must render the run directory to both the
# terminal and a self-contained HTML file. Validated with grep only —
# the structural checks live in the cli/core/obs test suites above.
echo "=== mem-stats & report gate ==="
cargo build -q -p fascia-cli --offline
MEMDIR=$(mktemp -d)
ESTDIR=$(mktemp -d)
ADMINDIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$MEMDIR" "$ESTDIR" "$ADMINDIR"
}
trap cleanup EXIT
./target/debug/fascia count circuit U5-2 --iters 2 --seed 1 \
  --parallel serial --metrics json --mem-stats \
  --mem-out "$MEMDIR/mem.json" --heartbeat "$MEMDIR/hb.json" \
  > "$MEMDIR/stdout.txt"
grep -q '"schema":"fascia-mem/1"' "$MEMDIR/stdout.txt"
grep -q '"schema":"fascia-mem/1"' "$MEMDIR/mem.json"
grep '"schema":"fascia-obs/1"' "$MEMDIR/stdout.txt" > "$MEMDIR/metrics.json"
./target/debug/fascia report "$MEMDIR" > "$MEMDIR/report.txt"
grep -q '^## Allocator' "$MEMDIR/report.txt"
grep -q '^## DP tables' "$MEMDIR/report.txt"
grep -q '<!doctype html>' "$MEMDIR/report.html"

# Estimator-observability gate: a real counting run with --est-trace must
# emit a fascia-est/1 document (its own stdout line AND the trace file),
# every JSON line on stdout must carry a known schema tag, `fascia report`
# must render the Estimator section, and — the observe-only contract —
# the final estimate must be byte-identical with the ledger absent vs.
# attached. The structural checks (strata shares, ledger bound, golden)
# live in the core/cli test suites above.
echo "=== estimator convergence gate ==="
./target/debug/fascia count circuit U5-2 --iters 20 --seed 1 \
  --parallel serial --metrics json --est-trace "$ESTDIR/est.json" \
  > "$ESTDIR/stdout.txt"
grep -q '"schema":"fascia-est/1"' "$ESTDIR/stdout.txt"
grep -q '"schema":"fascia-est/1"' "$ESTDIR/est.json"
! grep '^{' "$ESTDIR/stdout.txt" | grep -qv '"schema":"fascia-'
./target/debug/fascia report "$ESTDIR" > "$ESTDIR/report.txt"
grep -q '^## Estimator' "$ESTDIR/report.txt"
grep -q 'relative CI trajectory' "$ESTDIR/report.txt"
grep -q '<!doctype html>' "$ESTDIR/report.html"
./target/debug/fascia count circuit U5-2 --iters 20 --seed 1 \
  --parallel serial > "$ESTDIR/plain.txt"
grep '^estimate:' "$ESTDIR/stdout.txt" > "$ESTDIR/est_on.txt"
grep '^estimate:' "$ESTDIR/plain.txt" > "$ESTDIR/est_off.txt"
cmp "$ESTDIR/est_on.txt" "$ESTDIR/est_off.txt"

# Live-admin gate: a real `fascia serve` daemon with the opt-in admin
# plane on an ephemeral port, scraped with curl exactly as an operator
# would. Asserts the liveness answer, the Prometheus service series, the
# job table, and that every line the daemon wrote to the events log is a
# fascia-events/1 record. A second job, dropped into the spool the way an
# operator would (write, then mv), must wake the idle daemon.
echo "=== live admin-endpoint gate ==="
printf '{"schema":"fascia-job/1","id":"ci-admin","graph":"circuit","template":"path4","iterations":4,"seed":11}\n' \
  > "$ADMINDIR/job.jsonl"
./target/debug/fascia serve --spool "$ADMINDIR/spool" \
  --admin-addr 127.0.0.1:0 --stdin < "$ADMINDIR/job.jsonl" \
  > "$ADMINDIR/serve.out" 2> "$ADMINDIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [ -f "$ADMINDIR/spool/admin.addr" ] && break
  sleep 0.1
done
ADMIN_ADDR=$(cat "$ADMINDIR/spool/admin.addr")
curl -sf "http://$ADMIN_ADDR/healthz" | grep -q '"status":"ok"'
for _ in $(seq 1 100); do
  [ -f "$ADMINDIR/spool/results/ci-admin.json" ] && break
  sleep 0.1
done
curl -sf "http://$ADMIN_ADDR/metrics" > "$ADMINDIR/metrics.prom"
grep -q '^svc_queue_depth' "$ADMINDIR/metrics.prom"
grep -q '^svc_jobs_completed 1' "$ADMINDIR/metrics.prom"
curl -sf "http://$ADMIN_ADDR/jobs" | grep -q '"schema":"fascia-jobs/1"'
curl -sf "http://$ADMIN_ADDR/jobs/ci-admin" | grep -q '"schema":"fascia-job-timeline/1"'
! grep -qv '"schema":"fascia-events/1"' "$ADMINDIR/spool/events/events.jsonl"
printf '{"schema":"fascia-job/1","id":"ci-admin-2","graph":"circuit","template":"path4","iterations":4,"seed":12}\n' \
  > "$ADMINDIR/ci-admin-2.json"
mv "$ADMINDIR/ci-admin-2.json" "$ADMINDIR/spool/jobs/ci-admin-2.json"
for _ in $(seq 1 100); do
  [ -f "$ADMINDIR/spool/results/ci-admin-2.json" ] && break
  sleep 0.1
done
curl -sf "http://$ADMIN_ADDR/metrics" > "$ADMINDIR/metrics.prom"
grep -q '^svc_jobs_completed 2' "$ADMINDIR/metrics.prom"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q '"schema":"fascia-svc-report/1"' "$ADMINDIR/serve.out"

# Chaos-smoke gate: a seeded soak of the resident service under injected
# worker panics, IO faults, and DP stalls. The script asserts the whole
# robustness contract — every job terminal (completed or cleanly failed
# with a typed error), zero torn/staging files, and a byte-identical
# replay of the fired event sequence under the same seed.
echo "=== service chaos-smoke gate ==="
FASCIA_SOAK_JOBS=6 FASCIA_SOAK_ITERS=6 scripts/chaos_soak.sh

echo "ci: all green"
