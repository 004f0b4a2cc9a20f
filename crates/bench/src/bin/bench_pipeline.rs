//! `bench_pipeline` — cold-vs-warm proof pipeline timings.
//!
//! Verifies each (app × platform) cell twice against a private, fresh
//! `PARFAIT_CACHE_DIR`: once cold (every stage runs) and once warm
//! through a brand-new pipeline handle (every stage must be an on-disk
//! cache hit). Asserts the warm run is fully cached and that the
//! composed certificates are byte-identical, then reports the speedup
//! and the cold run's per-stage walls (`stage_seconds`). Independent
//! stages overlap on the `--threads`-wide stage graph, so those walls
//! can sum to more than `cold_seconds`.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_pipeline -- --quick --json BENCH_pipeline.json
//! ```

use std::time::Instant;

use parfait_bench::{path_arg, render_table, threads_arg, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{CertCache, Pipeline};
use parfait_telemetry::json::Json;

fn main() {
    parfait_bench::check_args(
        "bench_pipeline [--quick] [--threads <n>] [--json <path>] [--metrics <path>]",
        &["--quick"],
        &["--threads", "--json", "--metrics"],
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_arg();
    let matrix: Vec<(App, Cpu)> = if quick {
        vec![(App::Hasher, Cpu::Ibex)]
    } else {
        [App::Ecdsa, App::Hasher]
            .into_iter()
            .flat_map(|app| [Cpu::Ibex, Cpu::Pico].into_iter().map(move |cpu| (app, cpu)))
            .collect()
    };
    // A private, guaranteed-cold cache directory: this benchmark's
    // whole point is the cold/warm contrast, so it must not inherit a
    // pre-warmed PARFAIT_CACHE_DIR.
    let cache_dir =
        std::env::temp_dir().join(format!("parfait-bench-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let obs = FpsObserver::default();
    let opt = OptLevel::O2;

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for &(app, cpu) in &matrix {
        let a = app.pipeline();
        eprintln!("cold-verifying {app} on {cpu}...");
        let cold_pipeline = Pipeline::new(
            CertCache::at(cache_dir.clone()),
            parfait_telemetry::Telemetry::disabled(),
        );
        let t0 = Instant::now();
        let cold = cold_pipeline
            .verify_cell(&a, cpu, opt, &obs, threads)
            .expect("cold verification passes");
        let cold_wall = t0.elapsed();
        assert!(!cold.fully_cached(), "first run against a fresh cache must be cold");

        // A brand-new handle (empty memo) forces the warm run through
        // the on-disk cache, the cross-process path.
        let warm_pipeline = Pipeline::new(
            CertCache::at(cache_dir.clone()),
            parfait_telemetry::Telemetry::disabled(),
        );
        let t0 = Instant::now();
        let warm = warm_pipeline
            .verify_cell(&a, cpu, opt, &obs, threads)
            .expect("warm verification passes");
        let warm_wall = t0.elapsed();
        assert!(warm.fully_cached(), "second run must hit the cache in every stage");
        assert_eq!(
            warm.composed.canonical(),
            cold.composed.canonical(),
            "cached certificates must be byte-identical to fresh ones"
        );

        let speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
        rows.push(vec![
            app.to_string(),
            cpu.to_string(),
            format!("{}", cold.stages.len()),
            format!("{:.2}s", cold_wall.as_secs_f64()),
            format!("{:.4}s", warm_wall.as_secs_f64()),
            format!("{speedup:.0}x"),
        ]);
        json_rows.push(Json::obj([
            ("app", Json::str(app.to_string())),
            ("platform", Json::str(cpu.to_string())),
            ("stages", Json::Int(cold.stages.len() as i64)),
            ("cold_seconds", Json::Num(cold_wall.as_secs_f64())),
            ("warm_seconds", Json::Num(warm_wall.as_secs_f64())),
            (
                "stage_seconds",
                Json::Obj(
                    cold.stages
                        .iter()
                        .map(|s| (s.certificate.stage.to_string(), Json::Num(s.wall.as_secs_f64())))
                        .collect(),
                ),
            ),
            ("speedup", Json::Num(speedup)),
            ("warm_fully_cached", Json::Bool(warm.fully_cached())),
            ("claim_from", Json::str(&cold.composed.claim.0)),
            ("claim_to", Json::str(&cold.composed.claim.1)),
        ]));
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!(
        "{}",
        render_table(
            "Proof pipeline: cold vs. warm verification (content-addressed cache)",
            &["App", "Platform", "Stages", "Cold", "Warm", "Speedup"],
            &rows
        )
    );
    println!("warm runs hit the on-disk certificate cache in every stage; certificates");
    println!("are byte-identical to the cold run's (asserted above).");
    if let Some(path) = path_arg("--json") {
        let doc = Json::obj([
            ("artifact", Json::str("bench_pipeline")),
            ("threads", Json::Int(threads as i64)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("bench_pipeline", threads, 0);
}
