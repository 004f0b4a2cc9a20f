//! `perfstat` — the deterministic performance ratchet driver.
//!
//! Runs three fixed workloads with the certificate cache disabled:
//!
//! 1. **lint**: the full static constant-time analysis of the hasher
//!    at `-O2` (IR taint + assembly fixpoint). Its steps, the asm
//!    fixpoint's state joins and the IR layer's call-summary memo hits
//!    are gated.
//! 2. **hardware**: the hasher's hardware stages on both platforms,
//!    one cell at a time: the contract battery that holds each core to
//!    its declared leakage contract (stimulus coverage is gated
//!    higher-is-better), the static bound analysis (its `bound_`
//!    coverage counters are gated too) and the FPS check (exercising
//!    the pre-decoded instruction cache and the build memo — one
//!    compile serves both platforms' bound keys and FPS builds, so
//!    every lookup after the first is a hit; a run that falls back from
//!    the product world to the dual loop counts in `fps_world_splits`).
//!    Each stage's wall time is `<stage>_s`, under a ceiling.
//! 3. **software**: the hasher's lockstep and `-O2` equivalence stages,
//!    cold. Translation validation runs interp and IR once per
//!    (state, command); their whole-command runs are gated lower-is-
//!    better (asm's are not: FPS queries of the workload above turn
//!    some into step-memo hits), and so are the app compiles the two
//!    stages make (`software_compiles`: both take every level's
//!    machine from the build memo, whose `-O2` build the workload
//!    above made). The wall is `software_s`. It runs last so the other
//!    workloads' counters never see it.
//!
//! It then reads the counter *deltas* off the global metrics registry,
//! each with the direction it may move in, and gates them against
//! `perf_baseline.json` through [`parfait_bench::ratchet::gate`]:
//! deterministic counters must not get worse, wall clock must stay
//! under a generous ceiling. `--update` rewrites the baseline but
//! refuses whatever the check fails.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin perfstat -- --baseline perf_baseline.json
//! cargo run -p parfait-bench --release --bin perfstat -- --baseline perf_baseline.json --update
//! ```

use std::process::ExitCode;
use std::time::Instant;

use parfait_bench::ratchet::{
    self,
    Direction::{HigherIsBetter, LowerIsBetter},
    Measurement,
};
use parfait_bench::{emit_manifest, path_arg_from, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{run_cells, AppPipeline, Cell, CertCache, Pipeline, StageSet};
use parfait_telemetry::metrics::{MetricKey, Metrics, MetricsSnapshot};
use parfait_telemetry::Telemetry;

fn usage() -> u8 {
    eprintln!("usage: perfstat --baseline <path> [--update] [--json <path>] [--metrics <path>]");
    1
}

/// Growth of counter `name` between two snapshots, summed over its
/// label sets that contain every pair in `with`.
fn grew(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    with: &[(&str, &str)],
) -> u64 {
    let total = |s: &MetricsSnapshot| -> u64 {
        let labeled = |k: &MetricKey| {
            with.iter().all(|&(a, b)| k.labels.iter().any(|(x, y)| x == a && y == b))
        };
        s.counters.iter().filter(|(k, _)| k.name == name && labeled(k)).map(|(_, v)| v).sum()
    };
    total(after) - total(before)
}

fn run_workloads() -> Result<Measurement, String> {
    let mut m = Measurement::default();
    let tel = Telemetry::disabled();
    let snapshot = || Metrics::global().snapshot();

    // -- workload 1: static lint of the hasher at -O2
    eprintln!("perfstat: linting {} at -O2...", App::Hasher.slug());
    let before = snapshot();
    let t0 = Instant::now();
    let report = parfait_analyzer::lint_source(&App::Hasher.source(), OptLevel::O2, &tel)
        .map_err(|e| format!("lint workload: {e}"))?;
    m.walls.insert("lint_s".into(), t0.elapsed().as_secs_f64());
    if !report.is_clean() {
        return Err("lint workload: hasher unexpectedly has findings".into());
    }
    let after = snapshot();
    // The asm fixpoint, which joins only at block heads, the IR taint
    // pass and the IR layer's call-summary memo.
    for (key, name, layer, better) in [
        ("lint_asm_fixpoint_iters", "analyzer_fixpoint_iterations_total", "asm", LowerIsBetter),
        ("lint_asm_joins", "analyzer_state_joins_total", "asm", LowerIsBetter),
        ("lint_ir_fixpoint_iters", "analyzer_fixpoint_iterations_total", "ir", LowerIsBetter),
        ("lint_ir_memo_hits", "analyzer_memo_hits_total", "ir", HigherIsBetter),
    ] {
        m.values.insert(key.into(), (grew(&before, &after, name, &[("layer", layer)]), better));
    }

    // -- workload 2: hardware stages, both platforms, one cell at a
    // time, cache off
    let pipeline = Pipeline::new(CertCache::disabled(), tel);
    let app = App::Hasher.pipeline();
    let cells: Vec<Cell<'_>> = [Cpu::Ibex, Cpu::Pico]
        .into_iter()
        .map(|cpu| Cell {
            pipeline: &pipeline,
            app: &app,
            cpu,
            opt: OptLevel::O2,
            stages: StageSet::hardware(),
            obs: FpsObserver::default(),
        })
        .collect();
    eprintln!("perfstat: hardware stages of {} at -O2...", app.name);
    let before = snapshot();
    for (cell, report) in cells.iter().zip(run_cells(1, &cells)) {
        let report = report.map_err(|e| format!("hardware workload ({}): {e}", cell.cpu))?;
        for s in &report.stages {
            let wall = m.walls.entry(format!("{}_s", s.certificate.stage)).or_default();
            *wall += s.wall.as_secs_f64();
        }
    }
    let after = snapshot();
    let grew = |name, with| grew(&before, &after, name, with);
    // Labeled per cell or core: summed over both platforms.
    for (key, name, with, better) in [
        // Simulated work of the FPS checks.
        ("fps_cycles", "fps_cycles_total", &[][..], LowerIsBetter),
        // FPS runs that left the product world for the dual loop: none,
        // on constant-time firmware (DESIGN.md §8).
        ("fps_world_splits", "fps_world_splits_total", &[], LowerIsBetter),
        // The build memo: one compile serves both platforms.
        (
            "firmware_build_hits",
            "pipeline_firmware_builds_total",
            &[("outcome", "hit")],
            HigherIsBetter,
        ),
        (
            "firmware_build_misses",
            "pipeline_firmware_builds_total",
            &[("outcome", "miss")],
            LowerIsBetter,
        ),
        // Bound-analysis coverage must only ever grow: fewer functions
        // or loops certified means the bound stage lost sight of code.
        ("bound_functions", "bound_functions_total", &[], HigherIsBetter),
        ("bound_loops", "bound_loops_total", &[], HigherIsBetter),
        // Contract-battery stimulus coverage likewise: a shrink means
        // instruction classes lost checks.
        ("contract_stimuli_total", "contract_stimuli_total", &[], HigherIsBetter),
    ] {
        m.values.insert(key.into(), (grew(name, with), better));
    }
    // Pre-decoded instruction cache efficiency, in parts per million of
    // fetches served from the cache.
    let (hits, misses) = (grew("decode_cache_hit", &[]), grew("decode_cache_miss", &[]));
    let rate_ppm = (hits * 1_000_000).checked_div(hits + misses).unwrap_or(0);
    m.values.insert("decode_cache_hit_rate_ppm".into(), (rate_ppm, HigherIsBetter));

    software_workload(&app, &mut m)?;
    Ok(m)
}

/// Workload 3: the hasher's translation-validating software stages on
/// a fresh (cold) cache.
fn software_workload(app: &AppPipeline, m: &mut Measurement) -> Result<(), String> {
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    eprintln!("perfstat: lockstep and equivalence stages of {} at -O2...", app.name);
    let before = Metrics::global().snapshot();
    let t0 = Instant::now();
    pipeline.lockstep_stage(app).map_err(|e| format!("software workload (lockstep): {e}"))?;
    pipeline
        .equivalence_stage(app, OptLevel::O2)
        .map_err(|e| format!("software workload (equivalence): {e}"))?;
    m.walls.insert("software_s".into(), t0.elapsed().as_secs_f64());
    let after = Metrics::global().snapshot();
    for (key, level) in [("validation_interp_runs", "interp"), ("validation_ir_runs", "ir")] {
        let runs = grew(&before, &after, "pipeline_validation_runs_total", &[("level", level)]);
        m.values.insert(key.into(), (runs, LowerIsBetter));
    }
    let compiles = grew(&before, &after, "littlec_compiles_total", &[]);
    m.values.insert("software_compiles".into(), (compiles, LowerIsBetter));
    Ok(())
}

fn main() -> ExitCode {
    let code = run();
    emit_manifest("perfstat", 1, i32::from(code));
    ExitCode::from(code)
}

fn run() -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = |flag| path_arg_from(args.iter().cloned(), flag);
    let (baseline, json) = match (path("--baseline"), path("--json"), path("--metrics")) {
        (Ok(Some(baseline)), Ok(json), Ok(_)) => (baseline, json),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("error: {e}");
            return usage();
        }
        _ => return usage(),
    };
    let mut do_update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--update" => do_update = true,
            // Each path was read above by path_arg_from.
            "--baseline" | "--json" | "--metrics" => {
                it.next();
            }
            _ => return usage(),
        }
    }

    let m = match run_workloads() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!("{}", m.render("perfstat: deterministic hot-path counters"));
    if let Some(path) = &json {
        if let Err(e) = write_json(path, &m.to_json("perfstat")) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    ratchet::gate(&baseline, &m, do_update, "perfstat")
}
