//! `bench_lint` — wall time of the static constant-time analysis.
//!
//! Times `parfait_analyzer::lint_source` (both layers, cold, no cache)
//! per application. The point of the measurement is the contrast with
//! the dynamic leakage check: a cold FPS run on the same firmware costs
//! minutes of wire-level simulation (see `BENCH_pipeline.json` /
//! EXPERIMENTS.md), while the static lint answers in seconds — which is
//! why it runs as the pipeline's `ctcheck` stage ahead of FPS.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_lint -- --quick --json BENCH_lint.json
//! ```

use std::time::Instant;

use parfait_analyzer::lint_source;
use parfait_bench::{json_output_path, render_table, write_json, App};
use parfait_littlec::codegen::OptLevel;
use parfait_telemetry::json::Json;
use parfait_telemetry::Telemetry;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let matrix: Vec<(App, OptLevel)> = if quick {
        vec![(App::Hasher, OptLevel::O2)]
    } else {
        // Every app at every opt level: each must lint clean (DESIGN.md §10).
        [App::Hasher, App::Totp, App::Ecdsa]
            .into_iter()
            .flat_map(|app| [OptLevel::O0, OptLevel::O1, OptLevel::O2].map(move |opt| (app, opt)))
            .collect()
    };
    let tel = Telemetry::disabled();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for &(app, opt) in &matrix {
        eprintln!("linting {} at {opt}...", app.slug());
        let t0 = Instant::now();
        let report = lint_source(&app.source(), opt, &tel).expect("production app is analyzable");
        let wall = t0.elapsed();
        assert!(report.is_clean(), "{}: {:#?}", app.slug(), report.findings);
        let per_instr = wall.as_secs_f64() * 1e6 / report.asm_instrs.max(1) as f64;
        rows.push(vec![
            app.slug().to_string(),
            opt.to_string(),
            report.ir_insts.to_string(),
            report.asm_instrs.to_string(),
            format!("{:.2}s", wall.as_secs_f64()),
            format!("{per_instr:.0}us"),
        ]);
        json_rows.push(Json::obj([
            ("app", Json::str(app.slug())),
            ("opt", Json::str(opt.to_string())),
            ("ir_insts", Json::Int(report.ir_insts as i64)),
            ("asm_instrs", Json::Int(report.asm_instrs as i64)),
            ("findings", Json::Int(report.findings.len() as i64)),
            ("seconds", Json::Num(wall.as_secs_f64())),
        ]));
    }
    println!(
        "{}",
        render_table(
            "Static constant-time lint: cold analysis wall time (both layers)",
            &["App", "Opt", "IR insts", "Asm instrs", "Wall", "Per asm instr"],
            &rows
        )
    );
    println!("all runs clean (asserted); compare the cold FPS columns in BENCH_pipeline.json.");
    if let Some(path) = json_output_path() {
        let doc = Json::obj([
            ("artifact", Json::str("bench_lint")),
            ("ruleset", Json::str(parfait_analyzer::RULESET_VERSION)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("bench_lint", 1, 0);
}
