//! `bench_fps` — FPS checking throughput, sequential vs. parallel.
//!
//! Runs the Table 4 verification matrix ({ECDSA, hasher} × {Ibex,
//! PicoRV32}) twice: once sequentially (the oracle) and once through
//! the matrix-parallel pipeline (cases fan out across the thread
//! budget; each case's FPS check uses the snapshot-fork segment
//! checker with its share). Reports per-case cycles, wall time, and
//! simulation rate, plus the aggregate wall-clock speedup.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_fps -- --quick --json BENCH_fps.json
//! ```
//!
//! Note the speedup ceiling: within one script the two world-chains
//! (real pre-pass, emulator replay) are inherently sequential, so
//! segment parallelism alone saturates near 2x; the matrix level is
//! what scales further — given physical cores to run on.

use std::time::{Duration, Instant};

use parfait_bench::{json_output_path, render_table, threads_arg, write_json, App};
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
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_arg();
    let apps: &[App] = if quick { &[App::Hasher] } else { &[App::Ecdsa, App::Hasher] };
    let matrix: Vec<(Cpu, App)> = [Cpu::Ibex, Cpu::Pico]
        .into_iter()
        .flat_map(|cpu| apps.iter().map(move |&app| (cpu, app)))
        .collect();
    let cases = matrix.len();
    let threads_per_case = (threads / cases).max(1);
    // This benchmark measures *checking* throughput, so it deliberately
    // bypasses the certificate cache (run_fps): a cache hit would
    // measure a file read, not the checker.
    let pipeline = Pipeline::new(CertCache::disabled(), parfait_telemetry::Telemetry::disabled());
    let pipeline = &pipeline;
    let timeout = FpsConfig::default_timeout();
    let obs = FpsObserver::default();
    let obs = &obs;

    // Baseline: the sequential oracle, one case at a time.
    let mut seq = Vec::new();
    let t_seq = Instant::now();
    for &(cpu, app) in &matrix {
        let t0 = Instant::now();
        let (report, _) = pipeline
            .run_fps(&app.pipeline(), cpu, OptLevel::O2, obs, 1, timeout)
            .expect("verification passes");
        seq.push((report, t0.elapsed()));
    }
    let seq_total = t_seq.elapsed();

    // The parallel pipeline: matrix fan-out × segment workers.
    let t_par = Instant::now();
    let par = parallel_map(cases.min(threads), matrix.clone(), move |_, (cpu, app)| {
        let t0 = Instant::now();
        let (report, _) = pipeline
            .run_fps(&app.pipeline(), cpu, OptLevel::O2, obs, threads_per_case, timeout)
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
        assert_eq!(seq_report.cycles, par_report.cycles, "checkers must agree");
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
            ("par_cpu_seconds", Json::Num(par_report.cpu.as_secs_f64())),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    let aggregate = seq_total.as_secs_f64() / par_total.as_secs_f64().max(1e-9);
    println!(
        "{}",
        render_table(
            "FPS checking throughput: sequential vs. parallel",
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
         {} thread(s) ({} per case)",
        seq_total.as_secs_f64(),
        par_total.as_secs_f64(),
        aggregate,
        cases,
        threads,
        threads_per_case
    );
    if let Some(path) = json_output_path() {
        let doc = Json::obj([
            ("artifact", Json::str("bench_fps")),
            ("threads", Json::Int(threads as i64)),
            ("threads_per_case", Json::Int(threads_per_case as i64)),
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
