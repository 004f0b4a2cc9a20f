//! The build memo (`parfait_pipeline::build`) against the derivations
//! it replaced: for every production cell its ctcheck and bound input
//! ids equal the old key derivation (kept below as an oracle that
//! compiles from scratch), its linked text, ROM image and spec machine
//! equal fresh builds, and a second lookup hands out the same `Arc`s.
//! Tampered apps never alias the clean build, compile failures repeat
//! verbatim, the memo stays bounded, a warm `serve` request compiles
//! nothing, and a cold edit compiles the app once per opt level.
//!
//! The memo is process-wide, so every test here holds `MEMO_LOCK`:
//! the capacity test would otherwise evict the warm test's builds
//! between its two batches.

use std::io::Cursor;
use std::sync::{Arc, Mutex, MutexGuard};

use parfait_adversary::catalog::catalog;
use parfait_hsms::platform::{build_firmware_parts, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_littlec::validate::asm_machine;
use parfait_pipeline::serve::server::handle_session;
use parfait_pipeline::{build, AppPipeline, ArtifactHasher, ArtifactId, CertCache, Pipeline};
use parfait_pipeline::{ServeCore, StdApp, SCHEMA};
use parfait_riscv::asm::Program;
use parfait_soc::Firmware;
use parfait_telemetry::json::{parse, Json};
use parfait_telemetry::metrics::{Metrics, MetricsSnapshot};
use parfait_telemetry::Telemetry;

static MEMO_LOCK: Mutex<()> = Mutex::new(());

fn memo_lock() -> MutexGuard<'static, ()> {
    MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn patch(app: &AppPipeline, asm: String) -> String {
    match app.tamper.as_ref().and_then(|t| t.patch_asm.as_ref()) {
        Some(p) => p(asm),
        None => asm,
    }
}

/// The ctcheck key as `ctcheck_stage` derived it before the memo.
fn oracle_ctcheck_id(app: &AppPipeline, opt: OptLevel) -> Result<ArtifactId, String> {
    let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
    let ir = parfait_littlec::ir::lower(&program).map_err(|e| e.to_string())?;
    let asm = parfait_littlec::compile(&program, opt).map_err(|e| e.to_string())?;
    let asm = patch(app, asm);
    let mut h = ArtifactHasher::new("stage:ctcheck");
    h.field_u64("schema", SCHEMA as u64)
        .field_str("app", &app.slug)
        .field_str("ruleset", parfait_analyzer::RULESET_VERSION)
        .field_str("latency-model", &parfait_analyzer::latency_model_fingerprint())
        .field_str("opt", &opt.to_string())
        .field_str("ir", &format!("{ir:?}"))
        .field_str("asm", &asm);
    if let Some(t) = &app.tamper {
        h.field_str("tamper", &t.fingerprint);
    }
    Ok(h.finish())
}

fn syssw_of(app: &AppPipeline) -> String {
    syssw::syssw_source(app.sizes.state, app.sizes.command, app.sizes.response)
}

/// The linked text as `linked_asm` derived it before the memo.
fn oracle_linked(app: &AppPipeline, opt: OptLevel) -> Result<String, String> {
    let mut source = app.source.clone();
    source.push_str(&syssw_of(app));
    let program = parfait_littlec::frontend(&source).map_err(|e| e.to_string())?;
    let compiled = parfait_littlec::compile(&program, opt).map_err(|e| e.to_string())?;
    let mut asm = String::from(syssw::BOOT_ASM);
    asm.push_str(&patch(app, compiled));
    Ok(asm)
}

/// The bound key as `bound_stage` derived it before the memo.
fn oracle_bound_id(app: &AppPipeline, cpu: Cpu, opt: OptLevel) -> Result<ArtifactId, String> {
    let linked = oracle_linked(app, opt)?;
    let mut h = ArtifactHasher::new("stage:bound");
    h.field_u64("schema", SCHEMA as u64)
        .field_str("app", &app.slug)
        .field_str("ruleset", parfait_analyzer::BOUND_RULESET_VERSION)
        .field_str("asm", &linked)
        .field_str("contract", &Pipeline::core_contract(cpu).canonical())
        .field_str("cpu", &cpu.to_string())
        .field_str("opt", &opt.to_string());
    if let Some(t) = &app.tamper {
        h.field_str("tamper", &t.fingerprint);
    }
    Ok(h.finish())
}

/// A fresh build of the ROM image and the spec machine's program, as
/// `run_fps` built them before the memo.
fn fresh_fps(app: &AppPipeline, opt: OptLevel) -> (Firmware, Program) {
    let fw = build_firmware_parts(&app.source, &syssw_of(app), opt, |a| patch(app, a)).unwrap();
    let program = parfait_littlec::frontend(&app.source).unwrap();
    let s = app.sizes;
    let spec = asm_machine(&program, opt, s.state, s.command, s.response).unwrap();
    (fw, spec.program().clone())
}

fn assert_fps_equal(app: &AppPipeline, opt: OptLevel, what: &str, metrics: &Metrics) {
    let (fw, spec) = build::fps_build(app, opt, metrics).unwrap();
    let (fresh_fw, fresh_spec) = fresh_fps(app, opt);
    assert_eq!(fw.rom, fresh_fw.rom, "{what}: ROM image");
    assert_eq!(fw.ram_init, fresh_fw.ram_init, "{what}: RAM image");
    assert_eq!(fw.symbols, fresh_fw.symbols, "{what}: firmware symbols");
    let p = spec.program();
    assert_eq!(p.text, fresh_spec.text, "{what}: spec text");
    assert_eq!(p.data, fresh_spec.data, "{what}: spec data");
    assert_eq!(p.symbols, fresh_spec.symbols, "{what}: spec symbols");
    assert_eq!((p.text_base, p.data_base), (fresh_spec.text_base, fresh_spec.data_base));
}

fn builds(snap: &MetricsSnapshot, outcome: &str) -> u64 {
    snap.counter("pipeline_firmware_builds_total", &[("outcome", outcome)]).unwrap_or(0)
}

fn lookups(snap: &MetricsSnapshot) -> u64 {
    builds(snap, "hit") + builds(snap, "miss")
}

#[test]
fn memo_matches_the_old_derivations_on_every_production_cell() {
    let _memo = memo_lock();
    let mut cells = 0;
    for app in StdApp::ALL.map(StdApp::pipeline) {
        for &opt in &app.opt_levels {
            let metrics = Metrics::new();
            let ctcheck = build::ctcheck_inputs(&app, opt, &metrics).unwrap();
            assert_eq!(
                ctcheck,
                oracle_ctcheck_id(&app, opt).unwrap(),
                "{}/{opt} ctcheck",
                app.slug
            );
            let linked = oracle_linked(&app, opt).unwrap();
            let mut first = Vec::new();
            for cpu in [Cpu::Ibex, Cpu::Pico] {
                let what = format!("{}/{cpu}/{opt}", app.slug);
                let (id, text) = build::bound_inputs(&app, cpu, opt, &metrics).unwrap();
                assert_eq!(id, oracle_bound_id(&app, cpu, opt).unwrap(), "{what} bound");
                assert_eq!(*text, *linked, "{what} linked text");
                assert_fps_equal(&app, opt, &what, &metrics);
                first.push((text, build::fps_build(&app, opt, &metrics).unwrap().1));
                cells += 1;
            }
            // One compile (none if an earlier test made this build)
            // served all of the cell's lookups.
            let again = metrics.snapshot();
            assert!(builds(&again, "miss") <= 1, "{}/{opt} compiled twice", app.slug);
            // Both platforms share one build: the same text and the same
            // spec machine (so the same step memo), lookup after lookup.
            for cpu in [Cpu::Ibex, Cpu::Pico] {
                let (_, text) = build::bound_inputs(&app, cpu, opt, &metrics).unwrap();
                let (_, spec) = build::fps_build(&app, opt, &metrics).unwrap();
                for (t, s) in &first {
                    assert!(Arc::ptr_eq(t, &text) && Arc::ptr_eq(s, &spec), "{}/{opt}", app.slug);
                }
            }
            let last = metrics.snapshot();
            assert_eq!(builds(&last, "miss"), builds(&again, "miss"));
            assert_eq!(builds(&last, "hit"), builds(&again, "hit") + 4);
        }
    }
    assert_eq!(cells, 14, "the production matrix");
}

#[test]
fn tampered_apps_never_alias_the_clean_build() {
    let _memo = memo_lock();
    let mutant = catalog().into_iter().find(|m| m.class == "cc-secret-latency").unwrap();
    let (cpu, opt) = (mutant.cpu, mutant.opt);
    let tampered = (mutant.build)();
    let mut clean = (mutant.build)();
    clean.tamper = None;

    let metrics = Metrics::new();
    let clean_ctcheck = build::ctcheck_inputs(&clean, opt, &metrics).unwrap();
    let (clean_bound, clean_text) = build::bound_inputs(&clean, cpu, opt, &metrics).unwrap();
    let clean_rom = build::fps_build(&clean, opt, &metrics).unwrap().0.rom;
    let before = (build::len(), metrics.snapshot());

    let ctcheck = build::ctcheck_inputs(&tampered, opt, &metrics).unwrap();
    let (bound, text) = build::bound_inputs(&tampered, cpu, opt, &metrics).unwrap();
    let (fw, _) = build::fps_build(&tampered, opt, &metrics).unwrap();
    assert_ne!(ctcheck, clean_ctcheck);
    assert_ne!(bound, clean_bound);
    assert_ne!(*text, *clean_text);
    assert_ne!(fw.rom, clean_rom);
    // The patched products are today's derivations, and none of them
    // went through the memo.
    assert_eq!(ctcheck, oracle_ctcheck_id(&tampered, opt).unwrap());
    assert_eq!(bound, oracle_bound_id(&tampered, cpu, opt).unwrap());
    assert_eq!(*text, oracle_linked(&tampered, opt).unwrap());
    assert_fps_equal(&tampered, opt, "tampered", &metrics);
    assert_eq!(build::len(), before.0, "a tampered app stored a build");
    assert_eq!(lookups(&metrics.snapshot()), lookups(&before.1), "a tampered app looked up");

    // The clean build is untouched by the mutant.
    assert_eq!(build::ctcheck_inputs(&clean, opt, &metrics).unwrap(), clean_ctcheck);
    let (bound_again, text_again) = build::bound_inputs(&clean, cpu, opt, &metrics).unwrap();
    assert_eq!(bound_again, clean_bound);
    assert!(Arc::ptr_eq(&text_again, &clean_text));
    assert_eq!(*text_again, oracle_linked(&clean, opt).unwrap());
    assert_fps_equal(&clean, opt, "clean after tampered", &metrics);
}

#[test]
fn compile_failures_repeat_the_same_error() {
    let _memo = memo_lock();
    let mut app = StdApp::Hasher.pipeline();
    app.source.push_str("\nu32 broken( {\n");
    let opt = OptLevel::O2;
    let metrics = Metrics::new();
    let want = oracle_ctcheck_id(&app, opt).unwrap_err();
    let want_linked = oracle_linked(&app, opt).unwrap_err();
    for _ in 0..2 {
        assert_eq!(build::ctcheck_inputs(&app, opt, &metrics).unwrap_err(), want);
        assert_eq!(build::bound_inputs(&app, Cpu::Ibex, opt, &metrics).unwrap_err(), want_linked);
        assert_eq!(build::fps_build(&app, opt, &metrics).err(), Some(want_linked.clone()));
    }
}

#[test]
fn more_builds_than_the_capacity_stay_bounded_and_correct() {
    let _memo = memo_lock();
    let opt = OptLevel::O1;
    let metrics = Metrics::new();
    let variant = |i: usize| {
        let mut app = StdApp::Totp.pipeline();
        app.source.push_str(&format!("\n// variant {i}\n"));
        app
    };
    let n = build::CAPACITY + 3;
    for i in 0..n {
        let app = variant(i);
        build::bound_inputs(&app, Cpu::Pico, opt, &metrics).unwrap();
        assert!(build::len() <= build::CAPACITY, "{} builds held", build::len());
    }
    assert_eq!(builds(&metrics.snapshot(), "miss"), n as u64);
    // The first variants were evicted; rebuilding them is still exact.
    for i in [0, n - 1] {
        let app = variant(i);
        assert_eq!(
            build::ctcheck_inputs(&app, opt, &metrics).unwrap(),
            oracle_ctcheck_id(&app, opt).unwrap()
        );
        let (id, text) = build::bound_inputs(&app, Cpu::Pico, opt, &metrics).unwrap();
        assert_eq!(id, oracle_bound_id(&app, Cpu::Pico, opt).unwrap());
        assert_eq!(*text, oracle_linked(&app, opt).unwrap());
        assert_fps_equal(&app, opt, &format!("variant {i}"), &metrics);
    }
    assert!(build::len() <= build::CAPACITY);
}

fn session(core: &ServeCore, lines: &str) -> Vec<Json> {
    let mut out = Vec::new();
    handle_session(core, Cursor::new(lines.as_bytes()), &mut out).unwrap();
    String::from_utf8(out).unwrap().lines().map(|l| parse(l).unwrap()).collect()
}

#[test]
fn a_warm_serve_request_compiles_nothing() {
    let _memo = memo_lock();
    let dir = std::env::temp_dir().join(format!("parfait-build-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let core =
        ServeCore::new(CertCache::at_with(dir.clone(), Metrics::new()), Telemetry::disabled(), 1);
    let batch: String = ["hasher", "totp"]
        .iter()
        .flat_map(|app| ["ibex", "pico"].map(|cpu| (app, cpu)))
        .enumerate()
        .map(|(i, (app, cpu))| {
            format!(
                r#"{{"op":"verify","id":"r{i}","tenant":"memo","app":"{app}","cpu":"{cpu}","opt":"-O2"}}"#
            ) + "\n"
        })
        .collect();
    let results = |frames: Vec<Json>| -> Vec<Json> {
        frames
            .into_iter()
            .filter(|f| f.get("frame").and_then(Json::as_str) == Some("result"))
            .collect()
    };
    assert_eq!(results(session(&core, &batch)).len(), 4, "cold fill");

    let before = core.metrics().snapshot();
    let warm = results(session(&core, &batch));
    let after = core.metrics().snapshot();
    assert_eq!(warm.len(), 4);
    for frame in &warm {
        assert_eq!(frame.get("cached"), Some(&Json::Bool(true)), "{frame}");
    }
    let grew = |outcome| builds(&after, outcome) - builds(&before, outcome);
    assert!(grew("hit") > 0, "the warm batch's keys came from the build memo");
    assert_eq!(grew("miss"), 0, "a warm request compiled");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fps_replays_the_equivalence_stages_step_on_the_memo_machine() {
    let _memo = memo_lock();
    // A fresh build, so its spec machine's step memo starts empty.
    let mut app = StdApp::Hasher.pipeline();
    app.source.push_str("\n// spec-memo variant\n");
    let opt = OptLevel::O2;
    let pipeline = Pipeline::new(CertCache::disabled_with(Metrics::new()), Telemetry::disabled());
    let spec = build::spec_machine(&app, opt, pipeline.metrics()).unwrap();
    let secret_workload = (app.secret_state.clone(), app.workload.clone());
    assert!(Pipeline::equivalence_cases(&app).contains(&secret_workload), "on the grid");

    pipeline.equivalence_stage(&app, opt).unwrap();
    // The stage stepped the shared machine but left its counters to FPS.
    assert_eq!(spec.take_memo_stats(), (0, 0));
    let (_, ran) = spec.step_uncounted(&secret_workload.0, &secret_workload.1).unwrap();
    assert!(!ran, "the equivalence stage recorded (secret state, workload)");

    let spec_memo = |outcome| {
        Metrics::global().snapshot().counter("spec_step_memo_total", &[("outcome", outcome)])
    };
    let before = (spec_memo("hit").unwrap_or(0), spec_memo("miss").unwrap_or(0));
    let timeout = parfait_knox2::FpsConfig::default_timeout();
    let obs = parfait_knox2::FpsObserver::default();
    let (report, _) = pipeline.run_fps(&app, Cpu::Ibex, opt, &obs, timeout).unwrap();
    let after = (spec_memo("hit").unwrap_or(0), spec_memo("miss").unwrap_or(0));
    // Its first spec query, (secret state, workload), is a hit; so is
    // the invalid command's, which is on the grid as well.
    assert_eq!(report.spec_queries, 2);
    assert_eq!((after.0 - before.0, after.1 - before.1), (2, 0));
}

#[test]
fn an_edited_hashers_matrix_compiles_the_app_once_per_level() {
    let _memo = memo_lock();
    // A source no earlier lookup has built.
    let mut app = StdApp::Hasher.pipeline();
    app.source.push_str("\n// edit-loop variant\n");
    let pipeline = Pipeline::new(CertCache::disabled_with(Metrics::new()), Telemetry::disabled());
    let compiles = || Metrics::global().snapshot().counter("littlec_compiles_total", &[]);
    let before = compiles().unwrap_or(0);
    let obs = FpsObserver::default();
    let cells = pipeline.verify_matrix(&app, &[Cpu::Ibex, Cpu::Pico], OptLevel::O2, &obs, 2);
    for (cpu, cell) in &cells {
        assert!(cell.is_ok(), "{cpu}: {:?}", cell.as_ref().err());
    }
    // Starling and the equivalence stage validate -O0, -O1 and -O2 on
    // the memo's machines, ctcheck lints the -O2 one, and bound and FPS
    // read the -O2 app linked with its system software: one compile
    // per level, and one link.
    assert_eq!(app.opt_levels, [OptLevel::O0, OptLevel::O1, OptLevel::O2]);
    assert_eq!(compiles().unwrap_or(0) - before, app.opt_levels.len() as u64 + 1);
}
