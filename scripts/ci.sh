#!/bin/sh
# Full local CI gate: formatting, the unsafe-code ban, release build,
# tier-1 tests, workspace tests, all examples built and the quickstart
# run end-to-end, the constant-time lint at -O0/-O1/-O2 (any finding
# fails), the deterministic performance ratchet against
# perf_baseline.json, the certified-resource-bound ratchet against
# bound_baseline.json, proof that both ratchets reject a zeroed
# baseline, the pipeline cache differential test (now
# including the ctcheck stage) run twice against one shared
# PARFAIT_CACHE_DIR (cold pass then warm pass — proving warm-run
# determinism), the observability gate (an instrumented cold verify's
# metrics snapshot must cover every stage and the expected metric
# families, FPS's retired instructions and FIFO high-water marks
# included), the
# serve-daemon gate (a recorded two-tenant session replayed cold then
# warm; the warm pass must be all cache hits), and clippy with
# warnings promoted to errors. Run from the repo root.
set -eux

# rustfmt's ignore option is nightly-only, so enumerate our packages
# instead of formatting the vendored ones.
for pkg in parfait parfait-telemetry parfait-riscv parfait-littlec \
    parfait-crypto parfait-rtl parfait-parallel parfait-cores \
    parfait-soc parfait-starling parfait-knox2 parfait-hsms \
    parfait-analyzer parfait-pipeline parfait-adversary parfait-bench \
    parfait-repro; do
    cargo fmt --check -p "$pkg"
done

# Every crate forbids unsafe code at the root; a new crate (or a
# removed attribute) must fail here, not in review.
for lib in src/lib.rs crates/*/src/lib.rs; do
    grep -q '#!\[forbid(unsafe_code)\]' "$lib" \
        || { echo "missing #![forbid(unsafe_code)] in $lib" >&2; exit 1; }
done

cargo build --release
cargo test -q
cargo test -q --workspace
# Every example must build, and the quickstart must run end-to-end.
cargo build --release --examples
cargo run --release --example quickstart
# Static constant-time lint: any finding fails the build loudly, as it
# fails the ctcheck stage. All three production firmwares at every opt
# level (DESIGN.md §10 claims each lints clean).
cargo run --release -p parfait-bench --bin lint
cargo run --release -p parfait-bench --bin lint -- --opt O0
cargo run --release -p parfait-bench --bin lint -- --opt O1
# The two ratchets share one gate (parfait_bench::ratchet). Ratchet
# improvements in with `<bin> --baseline <file> --update`, which
# refuses whatever the check fails.
# Deterministic performance ratchet: hot-path counters (analyzer
# fixpoint iterations, the IR memo's hits, the asm fixpoint's state joins,
# FPS cycles, decode-cache hit rate, build-memo lookups that compiled
# nothing, the app compiles of the software stages) must not regress
# against perf_baseline.json; wall clock is only a generous backstop.
./target/release/perfstat --baseline perf_baseline.json
# Certified-resource-bound ratchet: every production cell's certified
# WCET and stack depth may only tighten against bound_baseline.json.
./target/release/boundstat --baseline bound_baseline.json
# Both gates must bite through the real bins: with every baselined
# value zeroed, each lower-is-better value is a regression, so the
# check fails, --update refuses, and the copy stays byte-unchanged.
for gate in perfstat:perf_baseline.json boundstat:bound_baseline.json; do
    bin="${gate%%:*}"
    zeroed="target/ci-zeroed-${gate#*:}"
    sed 's/"value":[0-9]*/"value":0/g' "${gate#*:}" > "$zeroed"
    cp "$zeroed" "$zeroed.orig"
    for mode in "" --update; do
        if ./target/release/"$bin" --baseline "$zeroed" $mode; then
            echo "$bin accepted a zeroed baseline (${mode:-check})" >&2
            exit 1
        fi
        cmp "$zeroed" "$zeroed.orig"
    done
done
# The certificate cache must be deterministic across processes: the
# same test suite against the same cache directory, first cold then
# warm, must pass both times with byte-identical certificates.
PIPELINE_CACHE_DIR="${PARFAIT_CACHE_DIR:-target/ci-pipeline-cache}"
rm -rf "$PIPELINE_CACHE_DIR"
PARFAIT_CACHE_DIR="$PIPELINE_CACHE_DIR" cargo test -q --release --test pipeline_cache
PARFAIT_CACHE_DIR="$PIPELINE_CACHE_DIR" cargo test -q --release --test pipeline_cache
# Adversarial mutation gate: every seeded fault of the full catalog must
# die at exactly the stage the ratcheted baseline records, and every
# clean control must survive (DESIGN.md §12). The whole catalog takes
# about a second.
cargo run --release -p parfait-bench --bin mutatest -- \
    --baseline mutation_baseline.json
# Observability gate: a cold instrumented verify must emit a metrics
# snapshot containing the pipeline, cache-ledger, worker-pool,
# contract-battery, and bound-analysis families, FPS's retired
# instructions and FIFO high-water marks (recorded only in the metrics
# registry, so nothing else would notice them stop), with every pipeline
# stage in StageKind::ALL represented (`@stages`); cold + --threads 2,
# so the stage graph's worker pool actually spins up. The seven-stage
# verify runs the contract battery and bound analysis cold here and
# must hit their certificates on the warm re-run.
OBS_CACHE_DIR="target/ci-obs-cache"
rm -rf "$OBS_CACHE_DIR"
PARFAIT_CACHE_DIR="$OBS_CACHE_DIR" ./target/release/verify \
    --app hasher --platform ibex --threads 2 \
    --json target/ci-obs-cold.json --metrics target/ci-obs-cold-metrics.json
./target/release/cachestat --check-metrics target/ci-obs-cold-metrics.json \
    --require pipeline_stage_,certcache_,pool_,fps_,contract_,bound_,@stages,fps_instructions_retired_total,fps_fifo_high_water
PARFAIT_CACHE_DIR="$OBS_CACHE_DIR" ./target/release/verify \
    --app hasher --platform ibex --threads 2 \
    --metrics target/ci-obs-warm-metrics.json
# Warm runs must still surface the certified bounds (read back off the
# cached certificate, not recomputed), so bound_ is gated here too.
./target/release/cachestat --check-metrics target/ci-obs-warm-metrics.json \
    --require pipeline_stage_,certcache_,bound_,@stages
./target/release/cachestat --dir "$OBS_CACHE_DIR"
# Serve gate: the proof daemon replays a recorded two-tenant JSONL
# session twice against one cache root. The cold pass must answer every
# request (and say goodbye — graceful drain on shutdown); the warm pass
# must be cache hits all the way down: every result frame reports
# `cached: true` (servestat --expect-all-cached) and the metrics
# snapshot records zero stage misses (cachestat @nomiss).
SERVE_CACHE_DIR="target/ci-serve-cache"
rm -rf "$SERVE_CACHE_DIR"
printf '%s\n' \
    '{"op":"ping"}' \
    '{"op":"verify","id":"s1","tenant":"team-a","app":"hasher","cpu":"pico","opt":"-O2"}' \
    '{"op":"verify","id":"s2","tenant":"team-b","app":"hasher","cpu":"pico","opt":"-O2"}' \
    '{"op":"shutdown"}' > target/ci-serve-session.jsonl
PARFAIT_CACHE_DIR="$SERVE_CACHE_DIR" ./target/release/serve --threads 2 \
    --metrics target/ci-serve-cold-metrics.json \
    < target/ci-serve-session.jsonl > target/ci-serve-cold.jsonl
./target/release/servestat target/ci-serve-cold.jsonl \
    --expect-results 2 --expect-errors 0 --expect-bye
PARFAIT_CACHE_DIR="$SERVE_CACHE_DIR" ./target/release/serve --threads 2 \
    --metrics target/ci-serve-warm-metrics.json \
    < target/ci-serve-session.jsonl > target/ci-serve-warm.jsonl
./target/release/servestat target/ci-serve-warm.jsonl \
    --expect-results 2 --expect-errors 0 --expect-all-cached --expect-bye
./target/release/cachestat --check-metrics target/ci-serve-warm-metrics.json \
    --require serve_,certcache_,@nomiss
# The same warm replay with a one-thread scheduler, whose stage graph
# runs inline on the session's thread, must pass the same gates.
PARFAIT_CACHE_DIR="$SERVE_CACHE_DIR" ./target/release/serve --threads 1 \
    --metrics target/ci-serve-warm1-metrics.json \
    < target/ci-serve-session.jsonl > target/ci-serve-warm1.jsonl
./target/release/servestat target/ci-serve-warm1.jsonl \
    --expect-results 2 --expect-errors 0 --expect-all-cached --expect-bye
./target/release/cachestat --check-metrics target/ci-serve-warm1-metrics.json \
    --require serve_,certcache_,@nomiss
cargo clippy --workspace --all-targets -- -D warnings
