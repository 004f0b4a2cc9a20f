//! Table 3: software (Starling) verification effort — proof size and
//! machine-verification runtime for both apps, produced by the proof
//! pipeline's software stages (the stages not keyed on the platform).
//! With `PARFAIT_CACHE_DIR` set, a re-run is a cache hit and the table
//! says so.

use std::time::Instant;

use parfait_bench::{json_output_path, loc, render_table, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{Pipeline, StageOutcome, StageSet};
use parfait_telemetry::json::Json;

/// "Proof LoC": the codec (the lockstep proof's encode/decode artifacts)
/// the app developer writes.
fn proof_loc(src: &str) -> usize {
    let codec = src
        .split("/// Byte-level encodings")
        .nth(1)
        .and_then(|s| s.split("#[cfg(test)]").next())
        .unwrap_or("");
    loc(codec)
}

fn stat(stages: &[StageOutcome], key: &str) -> i64 {
    stages
        .iter()
        .flat_map(|s| s.certificate.stats.iter())
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn main() {
    let pipeline = Pipeline::from_env(parfait_telemetry::Telemetry::disabled());
    let (software, obs) = (StageSet::software(), FpsObserver::default());
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    let specs = [
        (
            App::Ecdsa,
            proof_loc(include_str!("../../../hsms/src/ecdsa/spec.rs")),
            "- (co-developed)",
        ),
        (
            App::Hasher,
            proof_loc(include_str!("../../../hsms/src/hasher/spec.rs")),
            "Δ small (reuses the framework)",
        ),
    ];
    for (app, proof, dev_time) in specs {
        let p = app.pipeline();
        let t0 = Instant::now();
        // The software stages ignore the platform.
        let report = pipeline.verify_stages(&p, Cpu::Ibex, OptLevel::O2, software, &obs, 1);
        let stages = report.expect("software stages verify").stages;
        let wall = t0.elapsed();
        let cached = stages.iter().all(|s| s.cache_hit);
        let obligations = stat(&stages, "lockstep_cases")
            + stat(&stages, "validation_cases")
            + stat(&stages, "ipr_operations");
        json_rows.push(Json::obj([
            ("app", Json::str(app.to_string())),
            ("proof_loc", Json::Int(proof as i64)),
            ("verify_seconds", Json::Num(wall.as_secs_f64())),
            ("cached", Json::Bool(cached)),
            ("lockstep_cases", Json::Int(stat(&stages, "lockstep_cases"))),
            ("validation_cases", Json::Int(stat(&stages, "validation_cases"))),
            ("ipr_operations", Json::Int(stat(&stages, "ipr_operations"))),
        ]));
        rows.push(vec![
            app.to_string(),
            format!("{proof} LoC"),
            dev_time.into(),
            format!(
                "{:.1}s ({} obligations){}",
                wall.as_secs_f64(),
                obligations,
                if cached { " [cached]" } else { "" }
            ),
        ]);
    }

    println!(
        "{}",
        render_table(
            "Table 3: software verification effort (Starling)",
            &["App", "Proof", "Dev time", "Machine verification"],
            &rows
        )
    );
    println!("Paper shape: proof is hundreds of lines; machine verification runs in");
    println!("under a minute (paper: ECDSA 500 LoC, hasher 200 LoC / Δ2 hours).");
    if let Some(path) = json_output_path() {
        let doc = Json::obj([("artifact", Json::str("table3")), ("rows", Json::Arr(json_rows))]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("table3", 1, 0);
}
