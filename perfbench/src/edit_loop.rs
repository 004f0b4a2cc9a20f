//! `edit-loop`: edit one hasher function, rebuild the app, re-verify
//! it at -O2 on both cores.

use std::time::Instant;

use parfait::levels::Level;
use parfait::StateMachine;
use parfait_hsms::hasher::{HasherCodec, HasherCommand, HasherResponse, HasherSpec, HasherState};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{app_from_codec, AppPipeline, CellReport, CertCache, Pipeline, StdApp};
use parfait_starling::StarlingConfig;
use parfait_telemetry::metrics::MetricsSnapshot;
use parfait_telemetry::Telemetry;

use crate::gen::{EditGen, SITES};
use crate::layers::Tracer;
use crate::{snapshot, Ctx, Outcome, Sample};

/// One round edits each of the six functions once (~3.3 s per op).
pub const NOMINAL_ROUND_S: f64 = 20.0;
/// Edits vary ±10% in cost even at equal work (equal lint fixpoint
/// iteration counts), so a run times at least twelve of them.
pub const MIN_ROUNDS: usize = 2;

const CPUS: [Cpu; 2] = [Cpu::Ibex, Cpu::Pico];
const THREADS: usize = 2;

/// Cache misses one edit must cost per stage: the spec and the cores'
/// contracts do not depend on the source; the software stages run once
/// for both cores; bound and FPS run once per core.
const EXPECTED_MISSES: [(&str, u64); 7] = [
    ("speccheck", 0),
    ("lockstep", 1),
    ("equivalence", 1),
    ("ctcheck", 1),
    ("contract", 0),
    ("bound", 2),
    ("fps", 2),
];

/// The password hasher on `source`, built exactly as
/// `StdApp::Hasher.pipeline()` builds it from the shipped source.
pub fn hasher_app(source: String) -> AppPipeline {
    let app = StdApp::Hasher;
    app_from_codec(
        &app.to_string(),
        app.slug(),
        source,
        app.sizes(),
        HasherCodec,
        HasherSpec,
        HasherState { secret: [0x61; 32] },
        HasherCommand::Hash { message: [0x11; 32] },
        vec![HasherSpec.init(), HasherState { secret: [7; 32] }],
        vec![
            HasherCommand::Initialize { secret: [1; 32] },
            HasherCommand::Hash { message: [2; 32] },
        ],
        vec![HasherResponse::Initialized],
        StarlingConfig {
            state_size: app.sizes().state,
            command_size: app.sizes().command,
            response_size: app.sizes().response,
            ..StarlingConfig::default()
        },
    )
}

fn observer() -> FpsObserver {
    FpsObserver { telemetry: Telemetry::disabled(), heartbeat_cycles: 0, cell: 0 }
}

/// Both cells verified, each composing to `app-spec ≈IPR soc(cpu)`.
fn check_cells(cells: &[(Cpu, Result<CellReport, String>)]) -> Result<(), String> {
    for (cpu, cell) in cells {
        let cell = cell.as_ref().map_err(|e| format!("{cpu}: {e}"))?;
        let want = (Level::Spec.label(None), Level::Soc.label(Some(&cpu.to_string())));
        if cell.composed.claim != want {
            return Err(format!("{cpu}: composed claim {:?}, want {want:?}", cell.composed.claim));
        }
    }
    Ok(())
}

fn check_ledger(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Result<(), String> {
    for (stage, want) in EXPECTED_MISSES {
        let label = [("stage", stage)];
        let got = after.counter("certcache_miss", &label).unwrap_or(0)
            - before.counter("certcache_miss", &label).unwrap_or(0);
        if got != want {
            return Err(format!("{stage}: {got} cache misses, want {want}"));
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        thread_budget: format!("verify_matrix at {THREADS} threads (one per core's cell)"),
        ..Outcome::default()
    };
    let base = StdApp::Hasher.source();
    let obs = observer();

    // Setup: the cold verification of the unedited hasher into a fresh
    // cache, which then serves the timed ops.
    let mut cal = out.host.settle();
    let pipeline = Pipeline::new(CertCache::at(ctx.dir("cache")), Telemetry::disabled());
    let t0 = Instant::now();
    let cells =
        pipeline.verify_matrix(&StdApp::Hasher.pipeline(), &CPUS, OptLevel::O2, &obs, THREADS);
    let s = t0.elapsed().as_secs_f64();
    let factor = out.host.next_factor(&mut cal);
    if let Err(e) = check_cells(&cells) {
        out.fail(format!("setup: {e}"));
        return out;
    }
    out.setup.push((s, factor));

    let mut edits = EditGen::new(ctx.seed);
    let mut op_id = 0u64;
    for round in 0..ctx.rounds {
        let traced = ctx.traced_round(round);
        for _ in 0..SITES.len() {
            op_id += 1;
            let before = snapshot();
            let t0 = Instant::now();
            let result = edits.next_edit(&base).map(|edit| {
                let ta = Instant::now();
                let app = hasher_app(edit.source);
                let tb = Instant::now();
                let cells = pipeline.verify_matrix(&app, &CPUS, OptLevel::O2, &obs, THREADS);
                (edit.function, edit.constant, cells, ta, tb)
            });
            let t1 = Instant::now();
            let after = snapshot();
            let factor = out.host.next_factor(&mut cal);
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            let checked = result.and_then(|(function, k, cells, ta, tb)| {
                if traced {
                    let op = tracer.record("op", op_id, None, t0, t1);
                    tracer.record("apps.build", op_id, Some(op), ta, tb);
                    tracer.record("pipeline.verify_matrix", op_id, Some(op), tb, t1);
                    for (_, cell) in &cells {
                        for stage in cell.iter().flat_map(|c| &c.stages) {
                            out.stages.add_outcome(stage);
                        }
                    }
                }
                check_cells(&cells)
                    .and_then(|()| check_ledger(&before, &after))
                    .map_err(|e| format!("op {op_id} ({function} k={k:#x}): {e}"))
            });
            if traced {
                out.delta.add(&before, &after);
            } else {
                out.untraced_wall_s += ms * factor / 1e3;
            }
            if let Err(e) = &checked {
                out.fail(e.clone());
            }
            out.samples.push(Sample { ms, factor, ok: checked.is_ok(), traced });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::apply;

    /// The `-O2` assembly of each function, keyed by its label.
    fn functions(source: &str) -> Vec<(String, String)> {
        let program = parfait_littlec::frontend(source).expect("parses and type-checks");
        let asm = parfait_littlec::compile(&program, OptLevel::O2).expect("compiles");
        let mut fns: Vec<(String, String)> = Vec::new();
        for line in asm.lines() {
            let global_label = line.ends_with(':') && !line.starts_with(['.', ' ', '\t', '#']);
            if global_label {
                fns.push((line.trim_end_matches(':').to_string(), String::new()));
            } else if let Some((_, body)) = fns.last_mut() {
                body.push_str(line);
                body.push('\n');
            }
        }
        fns
    }

    #[test]
    fn mirrored_app_matches_the_shipped_hasher() {
        let shipped = StdApp::Hasher.pipeline();
        let mirror = hasher_app(StdApp::Hasher.source());
        assert_eq!(mirror.source, shipped.source);
        assert_eq!(mirror.starling_fingerprint, shipped.starling_fingerprint);
        assert_eq!(mirror.secret_state, shipped.secret_state);
        assert_eq!(mirror.dummy_state, shipped.dummy_state);
        assert_eq!(mirror.workload, shipped.workload);
        assert_eq!((mirror.spec_probe)().digest(), (shipped.spec_probe)().digest());
    }

    #[test]
    fn every_edit_changes_exactly_its_own_functions_asm() {
        let base = StdApp::Hasher.source();
        let original = functions(&base);
        let mut gen = EditGen::new(99);
        // Two rounds: every site, with a small and a large constant.
        for i in 0..2 * SITES.len() {
            let edit = gen.next_edit(&base).expect("anchor present");
            let edited = functions(&edit.source);
            assert_eq!(edited.len(), original.len());
            for ((name, before), (name2, after)) in original.iter().zip(&edited) {
                assert_eq!(name, name2);
                assert_eq!(
                    before != after,
                    *name == edit.function,
                    "edit {i} of {} (k={:#x}) must change only that function's asm ({name})",
                    edit.function,
                    edit.constant
                );
            }
        }
        for site in &SITES {
            assert!(apply(site, &base, 1).is_ok(), "{} anchor occurs once", site.function);
        }
    }

    #[test]
    fn a_sample_edit_certifies_end_to_end() {
        let base = StdApp::Hasher.source();
        let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
        let source = apply(&SITES[0], &base, 0x1234_5679).expect("anchor present");
        let cells =
            pipeline.verify_matrix(&hasher_app(source), &CPUS, OptLevel::O2, &observer(), THREADS);
        check_cells(&cells).expect("the edited hasher certifies on both cores");
        for (_, cell) in cells {
            assert_eq!(cell.expect("checked").stages.len(), 7);
        }
    }
}
