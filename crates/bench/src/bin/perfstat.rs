//! `perfstat` — the deterministic performance ratchet driver.
//!
//! Runs two fixed workloads with the certificate cache disabled:
//!
//! 1. **lint**: the full static constant-time analysis of the hasher
//!    at `-O2` (IR taint + sparse assembly fixpoint).
//! 2. **hardware**: the hasher's hardware stages on both platforms,
//!    one cell at a time: the contract battery that holds each core to
//!    its declared leakage contract (stimulus coverage is gated
//!    higher-is-better), the static bound analysis (its `bound_`
//!    coverage counters are gated too) and the FPS check (exercising
//!    the pre-decoded instruction cache and the build memo — one
//!    compile serves both platforms' bound keys and FPS builds, so
//!    every lookup after the first is a hit). Each stage's wall time
//!    is `<stage>_s`, under a ceiling.
//!
//! It then reads the counter *deltas* off the global metrics registry
//! and gates them against `perf_baseline.json` (see
//! [`parfait_bench::perf`]): deterministic counters must not get
//! worse, wall clock must stay under a generous ceiling. `--update`
//! rewrites the baseline but refuses regressions.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin perfstat -- --baseline perf_baseline.json
//! cargo run -p parfait-bench --release --bin perfstat -- --baseline perf_baseline.json --update
//! ```

use std::process::ExitCode;
use std::time::Instant;

use parfait_bench::perf::{check, update, Baseline, Measurement};
use parfait_bench::{emit_manifest, render_table, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{run_cells, Cell, CertCache, Pipeline, StageSet};
use parfait_telemetry::json::Json;
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
    // The gate's counters assume the decode cache is live; pin the
    // knob so an ambient `PARFAIT_DECODE_CACHE=0` (or a future default
    // flip) can't make the gate compare different configurations.
    std::env::set_var("PARFAIT_DECODE_CACHE", "1");
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
    for (key, name, layer) in [
        ("lint_asm_fixpoint_iters", "analyzer_fixpoint_iterations_total", "asm"),
        ("lint_ir_fixpoint_iters", "analyzer_fixpoint_iterations_total", "ir"),
        ("lint_asm_memo_hits", "analyzer_memo_hits_total", "asm"),
    ] {
        m.counters.insert(key.into(), grew(&before, &after, name, &[("layer", layer)]));
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
    for (key, name, with) in [
        ("fps_cycles", "fps_cycles_total", &[][..]),
        ("firmware_build_hits", "pipeline_firmware_builds_total", &[("outcome", "hit")]),
        ("firmware_build_misses", "pipeline_firmware_builds_total", &[("outcome", "miss")]),
        // Labeled per cell or core: summed over both platforms.
        ("bound_functions", "bound_functions_total", &[]),
        ("bound_loops", "bound_loops_total", &[]),
        ("contract_stimuli_total", "contract_stimuli_total", &[]),
    ] {
        m.counters.insert(key.into(), grew(name, with));
    }
    let (hits, misses) = (grew("decode_cache_hit", &[]), grew("decode_cache_miss", &[]));
    let rate_ppm = (hits * 1_000_000).checked_div(hits + misses).unwrap_or(0);
    m.counters.insert("decode_cache_hit_rate_ppm".into(), rate_ppm);
    Ok(m)
}

fn main() -> ExitCode {
    let code = run();
    emit_manifest("perfstat", 1, i32::from(code));
    ExitCode::from(code)
}

fn run() -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut do_update = false;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => return usage(),
            },
            "--update" => do_update = true,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => return usage(),
            },
            "--metrics" => {
                if it.next().is_none() {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }
    if let Err(e) = parfait_bench::metrics_path_from(args.iter().cloned()) {
        eprintln!("error: {e}");
        return usage();
    }
    let Some(baseline_path) = baseline_path else { return usage() };

    let m = match run_workloads() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };

    let mut rows: Vec<Vec<String>> =
        m.counters.iter().map(|(k, v)| vec![k.clone(), v.to_string()]).collect();
    rows.extend(m.walls.iter().map(|(k, v)| vec![k.clone(), format!("{v:.2}")]));
    println!(
        "{}",
        render_table("perfstat: deterministic hot-path counters", &["Metric", "Value"], &rows)
    );

    if let Some(path) = &json_path {
        let doc = Json::obj([
            ("artifact", Json::str("perfstat")),
            (
                "counters",
                Json::Obj(
                    m.counters.iter().map(|(k, &v)| (k.clone(), Json::Int(v as i64))).collect(),
                ),
            ),
            (
                "walls_s",
                Json::Obj(m.walls.iter().map(|(k, &v)| (k.clone(), Json::Num(v))).collect()),
            ),
        ]);
        if let Err(e) = write_json(std::path::Path::new(path), &doc) {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("wrote {path}");
    }

    let prev = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parfait_telemetry::json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| Baseline::from_json(&doc))
        {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("error: {baseline_path}: {e}");
                return 1;
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            eprintln!("error: {baseline_path}: {e}");
            return 1;
        }
    };

    if do_update {
        match update(prev.as_ref(), &m) {
            Ok(b) => {
                if let Err(e) = write_json(std::path::Path::new(&baseline_path), &b.to_json()) {
                    eprintln!("error: cannot write {baseline_path}: {e}");
                    return 1;
                }
                println!("perf baseline updated: {baseline_path}");
                0
            }
            Err(regressions) => {
                eprintln!(
                    "error: refusing to update {baseline_path}: {} counter(s) regressed:",
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                eprintln!("(fix the regression, or delete the baseline to accept it explicitly)");
                1
            }
        }
    } else {
        let Some(prev) = prev else {
            eprintln!(
                "error: {baseline_path} does not exist; create it with `perfstat --baseline \
                 {baseline_path} --update`"
            );
            return 1;
        };
        let verdict = check(&prev, &m);
        for note in &verdict.notes {
            eprintln!("note: {note}");
        }
        if !verdict.pass() {
            eprintln!("error: performance ratchet: {} violation(s):", verdict.violations.len());
            for v in &verdict.violations {
                eprintln!("  {v}");
            }
            return 1;
        }
        println!(
            "perf: ok ({} gated counters, {} wall ceilings)",
            prev.counters.len(),
            prev.wall_ceilings.len()
        );
        0
    }
}
