//! `lint` — the standalone constant-time lint driver.
//!
//! Runs the `parfait-analyzer` static leakage analysis (IR taint +
//! assembly abstract interpretation, DESIGN.md §10) over the standard
//! applications, prints every finding and exits nonzero on any — the
//! same verdict the `ctcheck` pipeline stage gives. CI runs it at
//! `-O0`, `-O1` and `-O2`.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin lint
//! cargo run -p parfait-bench --release --bin lint -- --app hasher --opt O0 --json lint.json
//! ```

use std::process::ExitCode;

use parfait_analyzer::{lint_source, Finding};
use parfait_bench::{emit_manifest, path_arg_from, render_table, write_json, App};
use parfait_littlec::codegen::OptLevel;
use parfait_telemetry::json::Json;
use parfait_telemetry::Telemetry;

fn usage() -> u8 {
    eprintln!(
        "usage: lint [--app <ecdsa|hasher|totp>]... [--opt <O0|O1|O2>] \
         [--json <path>] [--metrics <path>]"
    );
    1
}

fn parse_opt(s: &str) -> Option<OptLevel> {
    match s {
        "O0" | "o0" | "0" => Some(OptLevel::O0),
        "O1" | "o1" | "1" => Some(OptLevel::O1),
        "O2" | "o2" | "2" => Some(OptLevel::O2),
        _ => None,
    }
}

fn main() -> ExitCode {
    let code = run();
    // Manifest (only with `--metrics`) records the exit status, so
    // failed lints leave an artifact too.
    emit_manifest("lint", 1, i32::from(code));
    ExitCode::from(code)
}

fn run() -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = |flag| path_arg_from(args.iter().cloned(), flag);
    let json_path = match (path("--json"), path("--metrics")) {
        (Ok(json), Ok(_)) => json,
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let mut apps: Vec<App> = Vec::new();
    let mut opt = OptLevel::O2;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--app" => match it.next().and_then(|s| App::from_slug(s)) {
                Some(app) => apps.push(app),
                None => return usage(),
            },
            "--opt" => match it.next().and_then(|s| parse_opt(s)) {
                Some(o) => opt = o,
                None => return usage(),
            },
            // Each path was read above by path_arg_from.
            "--json" | "--metrics" => {
                it.next();
            }
            _ => return usage(),
        }
    }
    if apps.is_empty() {
        apps = App::ALL.to_vec();
    }

    let tel = Telemetry::disabled();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut findings: Vec<(App, Finding)> = Vec::new();
    for &app in &apps {
        eprintln!("linting {} at {opt}...", app.slug());
        let report = match lint_source(&app.source(), opt, &tel) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", app.slug());
                return 1;
            }
        };
        rows.push(vec![
            app.slug().to_string(),
            opt.to_string(),
            report.ir_insts.to_string(),
            report.asm_instrs.to_string(),
            report.findings.len().to_string(),
        ]);
        json_rows.push(Json::obj([
            ("app", Json::str(app.slug())),
            ("opt", Json::str(opt.to_string())),
            ("ir_insts", Json::Int(report.ir_insts as i64)),
            ("asm_instrs", Json::Int(report.asm_instrs as i64)),
            ("findings", Json::Arr(report.findings.iter().map(Finding::to_json).collect())),
        ]));
        findings.extend(report.findings.into_iter().map(|f| (app, f)));
    }

    println!(
        "{}",
        render_table(
            &format!(
                "parfait-lint: constant-time analysis ({})",
                parfait_analyzer::RULESET_VERSION
            ),
            &["App", "Opt", "IR insts", "Asm instrs", "Findings"],
            &rows
        )
    );

    if let Some(path) = &json_path {
        let doc = Json::obj([
            ("artifact", Json::str("lint")),
            ("ruleset", Json::str(parfait_analyzer::RULESET_VERSION)),
            ("opt", Json::str(opt.to_string())),
            ("rows", Json::Arr(json_rows)),
        ]);
        if let Err(e) = write_json(path, &doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }

    if !findings.is_empty() {
        eprintln!("error: {} constant-time finding(s):", findings.len());
        for (app, f) in &findings {
            eprintln!("  [{}] {f}", app.slug());
        }
        return 1;
    }
    println!("constant-time: clean ({} apps at {opt}, 0 findings)", apps.len());
    0
}
