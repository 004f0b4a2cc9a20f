//! `bench_fps` — FPS checking throughput, one case at a time.
//!
//! Runs the Table 4 verification matrix ({ECDSA, hasher} × {Ibex,
//! PicoRV32}) one case after another and reports each case's cycles,
//! wall time, and simulation rate: the per-cell cycles/s record.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_fps -- --quick --json BENCH_fps.json
//! ```
//!
//! One case's check is one lock-step chain on one thread; running
//! cells side by side is the stage graph's job, which `table4
//! --threads` and `bench_pipeline` measure.

use std::time::Instant;

use parfait_bench::{path_arg, render_table, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::{FpsConfig, FpsObserver};
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{CertCache, Pipeline};
use parfait_telemetry::json::Json;

fn main() {
    parfait_bench::check_args(
        "bench_fps [--quick] [--json <path>] [--metrics <path>]",
        &["--quick"],
        &["--json", "--metrics"],
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let apps: &[App] = if quick { &[App::Hasher] } else { &[App::Ecdsa, App::Hasher] };
    // This benchmark measures *checking* throughput, so it deliberately
    // bypasses the certificate cache (run_fps): a cache hit would
    // measure a file read, not the checker.
    let pipeline = Pipeline::new(CertCache::disabled(), parfait_telemetry::Telemetry::disabled());
    let timeout = FpsConfig::default_timeout();
    let obs = FpsObserver::default();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let t_all = Instant::now();
    for cpu in [Cpu::Ibex, Cpu::Pico] {
        for &app in apps {
            let t0 = Instant::now();
            let (report, _) = pipeline
                .run_fps(&app.pipeline(), cpu, OptLevel::O2, &obs, timeout)
                .expect("verification passes");
            let wall = t0.elapsed().as_secs_f64();
            rows.push(vec![
                cpu.to_string(),
                app.to_string(),
                format!("{}", report.cycles),
                format!("{wall:.2}s"),
                format!("{:.2}M", report.cycles_per_second() / 1e6),
            ]);
            json_rows.push(Json::obj([
                ("platform", Json::str(cpu.to_string())),
                ("app", Json::str(app.to_string())),
                ("cycles", Json::Int(report.cycles as i64)),
                ("seconds", Json::Num(wall)),
                ("cycles_per_second", Json::Num(report.cycles_per_second())),
            ]));
        }
    }
    let total = t_all.elapsed().as_secs_f64();
    println!(
        "{}",
        render_table(
            "FPS checking throughput, one case at a time",
            &["Platform", "App", "Cycles", "Wall", "Cyc/s"],
            &rows
        )
    );
    println!("total: {total:.2}s across {} case(s)", rows.len());
    if let Some(path) = path_arg("--json") {
        let doc = Json::obj([
            ("artifact", Json::str("bench_fps")),
            ("total_seconds", Json::Num(total)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("bench_fps", 1, 0);
}
