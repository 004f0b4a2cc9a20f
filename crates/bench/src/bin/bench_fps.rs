//! `bench_fps` — FPS checking throughput, one case at a time vs. the
//! matrix fanned out.
//!
//! Runs the Table 4 verification matrix ({ECDSA, hasher} × {Ibex,
//! PicoRV32}) twice: once one case at a time, and once with the cases
//! fanned out across the thread budget. Reports per-case cycles, wall
//! time, and simulation rate, plus the aggregate wall-clock speedup.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_fps -- --quick --json BENCH_fps.json
//! ```
//!
//! Note the speedup ceiling: one case's check is one lock-step chain
//! on one thread, so the fan-out across cases is the only parallelism
//! — bounded by the number of cases and of physical cores.

use std::time::{Duration, Instant};

use parfait_bench::{path_arg, render_table, threads_arg, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::{FpsConfig, FpsObserver, FpsReport};
use parfait_littlec::codegen::OptLevel;
use parfait_parallel::parallel_map;
use parfait_pipeline::{CertCache, Pipeline};
use parfait_telemetry::json::Json;

struct Case {
    cpu: Cpu,
    app: App,
    seq: (FpsReport, Duration),
    par: (FpsReport, Duration),
}

fn main() {
    parfait_bench::check_args(
        "bench_fps [--quick] [--threads <n>] [--json <path>] [--metrics <path>]",
        &["--quick"],
        &["--threads", "--json", "--metrics"],
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_arg();
    let apps: &[App] = if quick { &[App::Hasher] } else { &[App::Ecdsa, App::Hasher] };
    let matrix: Vec<(Cpu, App)> = [Cpu::Ibex, Cpu::Pico]
        .into_iter()
        .flat_map(|cpu| apps.iter().map(move |&app| (cpu, app)))
        .collect();
    let cases = matrix.len();
    // This benchmark measures *checking* throughput, so it deliberately
    // bypasses the certificate cache (run_fps): a cache hit would
    // measure a file read, not the checker.
    let pipeline = Pipeline::new(CertCache::disabled(), parfait_telemetry::Telemetry::disabled());
    let pipeline = &pipeline;
    let timeout = FpsConfig::default_timeout();
    let obs = FpsObserver::default();
    let obs = &obs;

    // Baseline: one case at a time.
    let mut seq = Vec::new();
    let t_seq = Instant::now();
    for &(cpu, app) in &matrix {
        let t0 = Instant::now();
        let (report, _) = pipeline
            .run_fps(&app.pipeline(), cpu, OptLevel::O2, obs, timeout)
            .expect("verification passes");
        seq.push((report, t0.elapsed()));
    }
    let seq_total = t_seq.elapsed();

    // The matrix fanned out across the thread budget.
    let t_par = Instant::now();
    let par = parallel_map(cases.min(threads), matrix.clone(), move |_, (cpu, app)| {
        let t0 = Instant::now();
        let (report, _) = pipeline
            .run_fps(&app.pipeline(), cpu, OptLevel::O2, obs, timeout)
            .expect("verification passes");
        (report, t0.elapsed())
    });
    let par_total = t_par.elapsed();

    let cases_out: Vec<Case> = matrix
        .iter()
        .zip(seq)
        .zip(par)
        .map(|((&(cpu, app), seq), par)| Case { cpu, app, seq, par })
        .collect();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for c in &cases_out {
        let (seq_report, seq_wall) = &c.seq;
        let (par_report, par_wall) = &c.par;
        assert_eq!(seq_report.cycles, par_report.cycles, "both legs run the same check");
        let speedup = seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9);
        rows.push(vec![
            c.cpu.to_string(),
            c.app.to_string(),
            format!("{}", seq_report.cycles),
            format!("{:.2}s", seq_wall.as_secs_f64()),
            format!("{:.2}s", par_wall.as_secs_f64()),
            format!("{:.2}M", seq_report.cycles_per_second() / 1e6),
            format!("{:.2}M", par_report.cycles_per_second() / 1e6),
            format!("{:.2}x", speedup),
        ]);
        json_rows.push(Json::obj([
            ("platform", Json::str(c.cpu.to_string())),
            ("app", Json::str(c.app.to_string())),
            ("cycles", Json::Int(seq_report.cycles as i64)),
            ("seq_seconds", Json::Num(seq_wall.as_secs_f64())),
            ("par_seconds", Json::Num(par_wall.as_secs_f64())),
            ("seq_cycles_per_second", Json::Num(seq_report.cycles_per_second())),
            ("par_cycles_per_second", Json::Num(par_report.cycles_per_second())),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    let aggregate = seq_total.as_secs_f64() / par_total.as_secs_f64().max(1e-9);
    println!(
        "{}",
        render_table(
            "FPS checking throughput: one case at a time vs. fanned out",
            &[
                "Platform",
                "App",
                "Cycles",
                "Seq wall",
                "Par wall",
                "Seq cyc/s",
                "Par cyc/s",
                "Speedup"
            ],
            &rows
        )
    );
    println!(
        "aggregate: {:.2}s sequential vs {:.2}s parallel = {:.2}x across {} case(s), \
         {} thread(s)",
        seq_total.as_secs_f64(),
        par_total.as_secs_f64(),
        aggregate,
        cases,
        threads,
    );
    if let Some(path) = path_arg("--json") {
        let doc = Json::obj([
            ("artifact", Json::str("bench_fps")),
            ("threads", Json::Int(threads as i64)),
            ("seq_total_seconds", Json::Num(seq_total.as_secs_f64())),
            ("par_total_seconds", Json::Num(par_total.as_secs_f64())),
            ("aggregate_speedup", Json::Num(aggregate)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("bench_fps", threads, 0);
}
