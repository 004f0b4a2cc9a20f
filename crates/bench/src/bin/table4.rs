//! Table 4: hardware (Knox2) verification effort — wall-clock time and
//! symbolic-circuit-simulation speed for each platform × app, run
//! through the proof pipeline's hardware stages (contract battery,
//! bound analysis, FPS; with `PARFAIT_CACHE_DIR` set, already-verified
//! cells are near-instant cache hits).
//!
//! The platform × app matrix fans out across the thread budget
//! (`--threads <n>`, or `PARFAIT_THREADS`, default: available
//! parallelism), and each case's FPS check runs with its share of the
//! budget via the snapshot-fork parallel checker.
//!
//! `--quick` verifies only the password hasher (the ECDSA runs take
//! minutes, like the paper's 80-100 core-hour runs took hours).

use std::time::Duration;

use parfait_bench::{json_output_path, loc, render_table, threads_arg, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{run_cells, Cell, Pipeline, StageSet};
use parfait_telemetry::json::Json;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_arg();
    // Platform proof sizes: emulator + checker code the platform
    // developer maintains, and the 10-line state mapping.
    let emulator_loc = loc(include_str!("../../../knox2/src/emulator.rs"));
    let proof_loc = loc(include_str!("../../../knox2/src/fps.rs"));
    let mapping_loc = 10; // fig. 10: register/pointer/next-instr mapping

    let apps: &[App] = if quick { &[App::Hasher] } else { &[App::Ecdsa, App::Hasher] };
    let apps: Vec<_> = apps.iter().map(|app| app.pipeline()).collect();
    let cases = 2 * apps.len();
    let threads_per_case = (threads / cases).max(1);
    let pipeline = Pipeline::from_env(parfait_telemetry::Telemetry::disabled());
    let cells: Vec<Cell<'_>> = [Cpu::Ibex, Cpu::Pico]
        .into_iter()
        .flat_map(|cpu| apps.iter().map(move |app| (cpu, app)))
        .map(|(cpu, app)| Cell {
            pipeline: &pipeline,
            app,
            cpu,
            opt: OptLevel::O2,
            stages: StageSet::hardware(),
            obs: FpsObserver::default(),
            threads: threads_per_case,
        })
        .collect();
    let reports = run_cells(cases.min(threads), &cells);

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (cell, report) in cells.iter().zip(reports) {
        let (app, cpu) = (&cell.app.name, cell.cpu);
        let report = report.expect("verification passes");
        let wall: Duration = report.stages.iter().map(|s| s.wall).sum();
        let stat =
            |key: &str| report.stages.iter().find_map(|s| s.certificate.stat(key)).unwrap_or(0);
        let fps = report.stages.iter().find_map(|s| s.fps.as_ref());
        let cached = report.fully_cached();
        let rate = fps.map(|r| r.cycles_per_second());
        json_rows.push(Json::obj([
            ("platform", Json::str(cpu.to_string())),
            ("app", Json::str(app)),
            ("verify_seconds", Json::Num(wall.as_secs_f64())),
            ("cached", Json::Bool(cached)),
            ("cpu_seconds", fps.map_or(Json::Null, |r| Json::Num(r.cpu.as_secs_f64()))),
            ("cycles", Json::Int(stat("cycles"))),
            ("cycles_per_second", rate.map_or(Json::Null, Json::Num)),
            ("commands", Json::Int(stat("commands"))),
            ("spec_queries", Json::Int(stat("spec_queries"))),
        ]));
        rows.push(vec![
            cpu.to_string(),
            emulator_loc.to_string(),
            proof_loc.to_string(),
            mapping_loc.to_string(),
            app.clone(),
            if cached {
                format!("{:.2}s [cached]", wall.as_secs_f64())
            } else {
                format!("{:.1}s", wall.as_secs_f64())
            },
            format!("{} cycles", stat("cycles")),
            rate.map_or("cached".into(), |r| format!("{:.2}M cyc/s", r / 1e6)),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Table 4: hardware verification (Knox2 functional-physical simulation)",
            &[
                "Platform",
                "Emulator LoC",
                "Checker LoC",
                "Mapping LoC",
                "App",
                "Verif. time",
                "Cycles",
                "Sim speed"
            ],
            &rows
        )
    );
    println!(
        "({} case(s) across {} thread(s), {} FPS thread(s) per case)",
        cases, threads, threads_per_case
    );
    println!("Paper shape to check: ECDSA >> hasher verification time; the PicoRV32");
    println!("needs more total cycles (multi-cycle core) while simulating each cycle");
    println!("faster than the pipelined Ibex; porting = only the 10-line mapping.");
    if let Some(path) = json_output_path() {
        let doc = Json::obj([
            ("artifact", Json::str("table4")),
            ("threads", Json::Int(threads as i64)),
            ("emulator_loc", Json::Int(emulator_loc as i64)),
            ("checker_loc", Json::Int(proof_loc as i64)),
            ("mapping_loc", Json::Int(mapping_loc as i64)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("table4", threads, 0);
}
