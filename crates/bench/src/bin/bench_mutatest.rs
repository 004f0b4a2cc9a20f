//! `bench_mutatest` — time-to-detection for the adversary catalog.
//!
//! Runs every mutation in the `parfait-adversary` catalog (DESIGN.md
//! §12) through the staged pipeline and measures the wall time from
//! "mutant built" to "stage rejects it" — the latency a developer pays
//! for each class of seeded bug. Aggregates per killing stage: faults
//! caught by the software stages die in milliseconds, faults that only
//! the wire-level FPS check can see cost the cycles it takes the
//! simulated SoC to reach the corrupted response.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_mutatest -- --threads 8 --json BENCH_mutatest.json
//! ```

use std::collections::BTreeMap;

use parfait_adversary::{catalog, reports_to_json, run_catalog, Matrix};
use parfait_bench::{path_arg, render_table, threads_arg, write_json};
use parfait_pipeline::{CertCache, Pipeline, StageKind};
use parfait_telemetry::json::Json;
use parfait_telemetry::Telemetry;

fn main() {
    parfait_bench::check_args(
        "bench_mutatest [--quick] [--threads <n>] [--json <path>] [--metrics <path>]",
        &["--quick"],
        &["--threads", "--json", "--metrics"],
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_arg();

    let mut muts = catalog();
    if quick {
        muts.retain(|m| m.quick);
    }
    // A cold cache per run: the benchmark measures detection latency,
    // not cache hits (mutants are content-addressed, so a warm repo
    // cache would short-circuit the very work being measured).
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    eprintln!("running {} mutant(s) on {threads} thread(s)...", muts.len());
    let reports = run_catalog(&pipeline, &muts, threads);

    let survivors: Vec<&str> =
        reports.iter().filter(|r| r.killed_by.is_none()).map(|r| r.class.as_str()).collect();
    assert!(survivors.is_empty(), "surviving mutants: {}", survivors.join(", "));

    let mut rows = Vec::new();
    for r in &reports {
        rows.push(vec![
            r.class.clone(),
            r.level.as_str().to_string(),
            r.verdict(),
            format!("{:.3}s", r.wall.as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Adversary catalog: time from mutant build to stage rejection",
            &["Class", "Level", "Verdict", "Wall"],
            &rows
        )
    );

    // Per-stage aggregates: how fast does each stage kill what it owns?
    let mut by_stage: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in &reports {
        if let Some(stage) = r.killed_by {
            by_stage.entry(stage.as_str()).or_default().push(r.wall.as_secs_f64());
        }
    }
    let mut stage_rows = Vec::new();
    let mut stage_json = Vec::new();
    for kind in StageKind::ALL {
        let Some(walls) = by_stage.get(kind.as_str()) else { continue };
        let min = walls.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = walls.iter().cloned().fold(0.0f64, f64::max);
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        stage_rows.push(vec![
            kind.as_str().to_string(),
            walls.len().to_string(),
            format!("{min:.3}s"),
            format!("{mean:.3}s"),
            format!("{max:.3}s"),
        ]);
        stage_json.push((
            kind.as_str().to_string(),
            Json::obj([
                ("kills", Json::Int(walls.len() as i64)),
                ("min_s", Json::Num(min)),
                ("mean_s", Json::Num(mean)),
                ("max_s", Json::Num(max)),
            ]),
        ));
    }
    println!(
        "{}",
        render_table(
            "Detection latency by killing stage",
            &["Stage", "Kills", "Min", "Mean", "Max"],
            &stage_rows
        )
    );
    println!("{}", Matrix::tally(&reports).render());

    if let Some(path) = path_arg("--json") {
        let doc = Json::obj([
            ("artifact", Json::str("bench_mutatest")),
            ("run", reports_to_json(&reports, threads)),
            ("by_stage", Json::Obj(stage_json)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("bench_mutatest", threads, 0);
}
