//! End-to-end observability of the proof pipeline (ISSUE 6).
//!
//! The contracts under test:
//!
//! 1. a warm re-run through a fresh pipeline handle records exactly one
//!    `certcache_disk_hit` per pipeline stage — the cache-hit-rate
//!    question is answerable from the snapshot alone — with per-stage
//!    duration histograms present;
//! 2. a real snapshot round-trips losslessly through both renderers
//!    (canonical JSON and Prometheus text exposition);
//! 3. the live matrix progress view runs end-to-end without a TTY: FPS
//!    heartbeats from a real verification land in the right lane of a
//!    captured in-memory sink;
//! 4. a `RunManifest` captured around a run round-trips through JSON
//!    with its env knobs and metrics intact.
//!
//! The fixture is the tiny token HSM (see `tests/common`), whose FPS
//! runs take only thousands of cycles.

mod common;

use std::path::PathBuf;

use common::{cmd, token_spec, TokenCodec, CMD, RESP, STATE, TOKEN_LC};
use parfait_hsms::platform::{AppSizes, Cpu};
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{app_from_codec, AppPipeline, CertCache, Pipeline, StageKind, StageSet};
use parfait_starling::StarlingConfig;
use parfait_telemetry::manifest::RunManifest;
use parfait_telemetry::metrics::{Metrics, MetricsSnapshot};
use parfait_telemetry::progress::MatrixView;
use parfait_telemetry::sinks::SharedBuf;
use parfait_telemetry::{json, Telemetry};

fn token_app(slug: &str) -> AppPipeline {
    app_from_codec(
        "token HSM",
        slug,
        TOKEN_LC.to_string(),
        AppSizes { state: STATE, command: CMD, response: RESP },
        TokenCodec,
        token_spec(),
        (0xDEAD_BEEF, 7),
        cmd(3, 5),
        vec![(0, 0), (0xDEAD_BEEF, 7)],
        vec![cmd(1, 5), cmd(2, 10), cmd(3, 5)],
        vec![vec![1, 0, 0, 0, 0]],
        StarlingConfig {
            state_size: STATE,
            command_size: CMD,
            response_size: RESP,
            adversarial_inputs: 4,
            ..StarlingConfig::default()
        },
    )
}

fn private_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parfait-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_run_disk_hits_equal_stages_and_snapshots_round_trip() {
    let dir = private_dir("obs-warm");
    let app = token_app("token-obs-warm");
    let obs = FpsObserver::default();

    // Cold populate, accounting to a throwaway registry.
    let cold =
        Pipeline::new(CertCache::at_with(dir.clone(), Metrics::new()), Telemetry::disabled());
    let cell = cold.verify_cell(&app, Cpu::Ibex, OptLevel::O2, &obs, 1).expect("verifies cold");
    let n_stages = cell.stages.len();
    assert!(cell.stages.iter().all(|s| !s.cache_hit), "fresh cache must be cold");

    // Warm re-run through a brand-new handle (fresh memo ⇒ disk path)
    // on an isolated registry, so the counts below are exact.
    let metrics = Metrics::new();
    let warm =
        Pipeline::new(CertCache::at_with(dir.clone(), metrics.clone()), Telemetry::disabled());
    let cell2 = warm.verify_cell(&app, Cpu::Ibex, OptLevel::O2, &obs, 1).expect("verifies warm");
    assert!(cell2.fully_cached());

    let snap = metrics.snapshot();
    // The acceptance invariant: disk hits == pipeline stages run.
    assert_eq!(snap.counter_total("certcache_disk_hit"), n_stages as u64);
    assert_eq!(snap.counter_total("certcache_miss"), 0);
    assert_eq!(snap.counter_total("certcache_corrupt_discard"), 0);
    for s in &cell2.stages {
        let stage = s.certificate.stage.as_str();
        assert_eq!(snap.counter("certcache_disk_hit", &[("stage", stage)]), Some(1), "{stage}");
        // Per-stage duration histograms: one observation per stage,
        // for wall and CPU time both.
        let wall = snap
            .hist("pipeline_stage_wall_us", &[("stage", stage)])
            .unwrap_or_else(|| panic!("wall histogram for {stage}"));
        assert_eq!(wall.count, 1, "{stage}");
        let cpu = snap
            .hist("pipeline_stage_cpu_us", &[("stage", stage)])
            .unwrap_or_else(|| panic!("cpu histogram for {stage}"));
        assert_eq!(cpu.count, 1, "{stage}");
        assert_eq!(
            snap.counter("pipeline_stage_runs_total", &[("outcome", "hit"), ("stage", stage)]),
            Some(1),
            "{stage}"
        );
    }

    // The same real snapshot survives both renderers losslessly.
    let json_doc = snap.to_json();
    let parsed = json::parse(&json_doc.to_string()).expect("snapshot JSON parses");
    assert_eq!(MetricsSnapshot::from_json(&parsed).expect("snapshot from JSON"), snap);
    let prom = snap.to_prometheus();
    let back = MetricsSnapshot::from_prometheus(&prom).expect("snapshot from Prometheus");
    assert_eq!(back, snap);
    assert_eq!(back.to_prometheus(), prom, "renderer is a fixpoint of the parser");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_view_renders_a_real_verification_without_a_tty() {
    let dir = private_dir("obs-view");
    let app = token_app("token-obs-view");

    // The captured-sink harness: exactly what `verify` wires up when
    // stderr is a TTY, except the view writes to an in-memory buffer.
    let buf = SharedBuf::default();
    let view = MatrixView::new(Box::new(buf.clone()), false);
    let cell = view.add_lane("token/ibex/O2");
    let tel = Telemetry::new(Box::new(view.sink()));

    let pipeline = Pipeline::new(CertCache::at_with(dir.clone(), Metrics::new()), tel.clone());
    view.set_stage(cell, "fps", false);
    // Heartbeat every 1000 cycles: a thousands-of-cycles token run
    // emits several, each carrying this lane's cell id.
    let obs = FpsObserver { telemetry: tel.clone(), heartbeat_cycles: 1_000, cell };
    let fps = StageSet::of(&[StageKind::Fps]);
    let report = pipeline
        .verify_stages(&app, Cpu::Ibex, OptLevel::O2, fps, &obs, 1)
        .expect("token app verifies");
    view.set_stage(cell, "fps", report.fully_cached());
    view.finish_lane(cell, true);
    tel.finish();

    // The heartbeats drove the lane: the rendered table shows the
    // cycle count and the completed status.
    let table = view.render();
    assert!(table.contains("token/ibex/O2"), "{table}");
    assert!(table.contains("ok"), "{table}");
    assert!(table.contains("cy"), "cycle count rendered: {table}");
    // Non-ANSI mode logged a completion line to the captured sink.
    let logged = buf.take_string();
    assert!(logged.contains("token/ibex/O2"), "{logged}");
    assert!(!logged.contains('\x1b'), "no control sequences without a TTY: {logged}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_manifest_round_trips_with_env_and_metrics() {
    let metrics = Metrics::new();
    metrics.counter_with("certcache_disk_hit", &[("stage", "fps")]).add(5);
    metrics.gauge_with("fps_cycles_per_second", &[("cell", "0")]).set(2.5e6);
    metrics.histogram_with("pipeline_stage_wall_us", &[("stage", "fps")]).record(1234);

    let manifest = RunManifest::capture("observability-test", 4, 0, &metrics);
    assert_eq!(manifest.bin, "observability-test");
    assert_eq!(manifest.threads, 4);
    assert!(manifest.build_id.starts_with("parfait-"), "{}", manifest.build_id);
    // Every env knob is present in the capture (set or explicitly null).
    for knob in parfait_telemetry::env::KNOBS {
        assert!(manifest.env.iter().any(|(k, _)| k == knob), "missing {knob}");
    }

    let doc = manifest.to_json().to_pretty_string();
    let back = RunManifest::from_json(&json::parse(&doc).expect("manifest JSON parses"))
        .expect("manifest from JSON");
    assert_eq!(back.bin, manifest.bin);
    assert_eq!(back.build_id, manifest.build_id);
    assert_eq!(back.threads, manifest.threads);
    assert_eq!(back.exit_code, manifest.exit_code);
    assert_eq!(back.env, manifest.env);
    assert_eq!(back.metrics, manifest.metrics);
    assert_eq!(back.metrics.counter_total("certcache_disk_hit"), 5);
}
