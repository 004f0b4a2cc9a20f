#!/bin/sh
# Benchmarks. Emits BENCH_fps.json (FPS throughput over the Table 4
# matrix, one case at a time),
# BENCH_pipeline.json (proof pipeline: cold vs. warm verification via
# the content-addressed certificate cache), and BENCH_lint.json (static
# constant-time lint wall time, the contrast to a cold FPS run), and
# BENCH_mutatest.json (adversary catalog: time from seeded fault to
# stage rejection) at the repo root, plus BENCH_serve.json (the serve
# daemon vs. sequential one-shot sessions on one request mix — request
# throughput and dedup accounting, not wall-clock speedup), then
# BENCH_perf.json (the
# deterministic hot-path counters compared against perf_baseline.json —
# the same ratchet CI enforces, so a bench run reports the comparison
# alongside the numbers it just produced). Run from the repo root.
#
#   scripts/bench.sh            # quick matrices (hasher-only)
#   FULL=1 scripts/bench.sh     # full matrices (adds the ECDSA runs)
#   THREADS=8 scripts/bench.sh  # override the thread budget
set -eux

cargo build --release -p parfait-bench

QUICK="--quick"
[ "${FULL:-0}" = "1" ] && QUICK=""
THREADS="${THREADS:-$(nproc 2>/dev/null || echo 4)}"

# Each bin also writes its RunManifest (build id, env knobs, thread
# count, metrics snapshot) next to the BENCH_*.json it produced, so a
# result is never separated from the conditions that generated it.
./target/release/bench_fps $QUICK \
    --json BENCH_fps.json --metrics BENCH_fps.manifest.json
./target/release/bench_pipeline $QUICK --threads "$THREADS" \
    --json BENCH_pipeline.json --metrics BENCH_pipeline.manifest.json
./target/release/bench_lint $QUICK \
    --json BENCH_lint.json --metrics BENCH_lint.manifest.json
./target/release/bench_mutatest --threads "$THREADS" \
    --json BENCH_mutatest.json --metrics BENCH_mutatest.manifest.json
# The serve daemon vs. sequential one-shot sessions on an identical
# two-tenant request mix (throughput and dedup accounting; the
# certificate byte-identity assertions run inside the bin).
./target/release/bench_serve $QUICK --threads "$THREADS" \
    --json BENCH_serve.json --metrics BENCH_serve.manifest.json
# The perf ratchet's fixed workloads, measured fresh and compared
# against the checked-in baseline; a regression fails the bench run
# loudly, exactly as it would fail CI.
./target/release/perfstat --baseline perf_baseline.json \
    --json BENCH_perf.json --metrics BENCH_perf.manifest.json
