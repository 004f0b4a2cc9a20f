//! End-to-end observability of the proof pipeline (ISSUE 6).
//!
//! The contracts under test:
//!
//! 1. a warm re-run through a fresh pipeline handle records exactly one
//!    `certcache_disk_hit` per pipeline stage — the cache-hit-rate
//!    question is answerable from the snapshot alone — with per-stage
//!    duration histograms present;
//! 2. a real snapshot round-trips losslessly through its canonical
//!    JSON encoding;
//! 3. the live matrix progress view runs end-to-end without a TTY: FPS
//!    heartbeats from a real verification land in the right lane of a
//!    captured in-memory sink;
//! 4. a `RunManifest` captured around a run round-trips through JSON
//!    with its env knobs and metrics intact;
//! 5. every committed `BENCH_*.manifest.json` still parses, retired env
//!    knobs included, with a non-empty metrics snapshot.
//!
//! The fixture is the tiny token HSM (see `tests/common`), whose FPS
//! runs take only thousands of cycles.

mod common;

use std::path::{Path, PathBuf};

use common::{cmd, token_spec, TokenCodec, CMD, RESP, STATE, TOKEN_LC};
use parfait_hsms::platform::{AppSizes, Cpu};
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{app_from_codec, AppPipeline, CertCache, Pipeline, StageKind, StageSet};
use parfait_starling::StarlingConfig;
use parfait_telemetry::manifest::{snapshot_from_file, RunManifest};
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
        // Per-stage wall histograms: one observation per stage.
        let wall = snap
            .hist("pipeline_stage_wall_us", &[("stage", stage)])
            .unwrap_or_else(|| panic!("wall histogram for {stage}"));
        assert_eq!(wall.count, 1, "{stage}");
        assert_eq!(
            snap.counter("pipeline_stage_runs_total", &[("outcome", "hit"), ("stage", stage)]),
            Some(1),
            "{stage}"
        );
    }

    // The same real snapshot survives its JSON encoding losslessly.
    let json_doc = snap.to_json();
    let parsed = json::parse(&json_doc.to_string()).expect("snapshot JSON parses");
    assert_eq!(MetricsSnapshot::from_json(&parsed).expect("snapshot from JSON"), snap);

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

#[test]
fn committed_bench_manifests_parse_with_their_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("a readable directory entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".manifest.json"))
        })
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no BENCH_*.manifest.json in {}", root.display());
    for path in &paths {
        let label = path.display();
        let snap = snapshot_from_file(path).unwrap_or_else(|e| panic!("{label}: {e}"));
        let text = std::fs::read_to_string(path).expect("a readable manifest");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        let manifest = RunManifest::from_json(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(manifest.metrics, snap, "{label}");
        assert!(
            !(snap.counters.is_empty() && snap.gauges.is_empty() && snap.hists.is_empty()),
            "{label}: empty metrics snapshot"
        );
    }
}
