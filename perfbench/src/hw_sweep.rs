//! `hw-sweep`: re-verify the hardware side (contract → bound → FPS) of
//! all twelve hasher/totp cells, the `verify --hardware-only` path.

use std::sync::Arc;
use std::time::Instant;

use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{AppPipeline, CertCache, Pipeline, StageCertificate, StageOutcome};
use parfait_telemetry::Telemetry;

use crate::gen::{hw_cells, Rng};
use crate::layers::{StageTimes, Tracer};
use crate::{snapshot, Ctx, Outcome, Sample};

/// One round is one op: twelve cells, ~0.35 s.
pub const NOMINAL_ROUND_S: f64 = 0.35;

/// `verify`'s default budget, spent as FPS segment workers: the cells
/// run one after another, as `verify --hardware-only` runs one cell.
const THREADS: usize = 2;
/// Stage runs per round: the contract battery depends on the app and
/// core but not the opt level, so it runs once per (app, core).
const EXPECTED_RUNS: [(&str, u64); 3] = [("contract", 4), ("bound", 12), ("fps", 12)];

/// Extra traced rounds with one FPS thread, comparing segment-parallel
/// FPS against the sequential checker.
const ONE_THREAD_ROUNDS: usize = 3;

type Cell = (Arc<AppPipeline>, OptLevel, Cpu);

/// The certificates one cell's hardware side produced.
type Certs = [StageCertificate; 3];

/// One op: the cells at the indices in `order`, in that order, on a
/// fresh memo-only cache.
fn sweep(
    cells: &[Cell],
    order: &[usize],
    threads: usize,
    tracer: Option<(&Tracer, u64)>,
) -> Result<Vec<[StageOutcome; 3]>, String> {
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    let obs = FpsObserver { telemetry: Telemetry::disabled(), heartbeat_cycles: 0, cell: 0 };
    let t0 = Instant::now();
    let mut stamps = Vec::with_capacity(order.len());
    let mut done = Vec::with_capacity(order.len());
    for &i in order {
        let (app, opt, cpu) = &cells[i];
        let (opt, cpu) = (*opt, *cpu);
        let cell = label(&cells[i]);
        let a = Instant::now();
        let contract = pipeline.contract_stage(app, cpu).map_err(|e| format!("{cell}: {e}"))?;
        let b = Instant::now();
        let bound = pipeline.bound_stage(app, cpu, opt).map_err(|e| format!("{cell}: {e}"))?;
        let c = Instant::now();
        let fps = pipeline
            .fps_stage_bounded(app, cpu, opt, &obs, threads, &bound)
            .map_err(|e| format!("{cell}: {e}"))?;
        stamps.push([a, b, c, Instant::now()]);
        done.push([contract, bound, fps]);
    }
    if let Some((t, op)) = tracer {
        let parent = Some(t.record("op", op, None, t0, Instant::now()));
        for [a, b, c, d] in stamps {
            t.record("pipeline.contract_stage", op, parent, a, b);
            t.record("pipeline.bound_stage", op, parent, b, c);
            t.record("pipeline.fps_stage_bounded", op, parent, c, d);
        }
    }
    Ok(done)
}

fn label((app, opt, cpu): &Cell) -> String {
    format!("{}/{cpu}/{opt}", app.slug)
}

fn certs(outcomes: &[StageOutcome; 3]) -> Certs {
    outcomes.clone().map(|o| o.certificate)
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        thread_budget: format!("{THREADS} FPS segment threads per cell; cells in sequence"),
        ..Outcome::default()
    };
    let cells = hw_cells();
    let all: Vec<usize> = (0..cells.len()).collect();

    // Setup: one untimed round. It fills the firmware-build memo and
    // the decode-cache registry, must really run every stage, and fixes
    // the reference certificates.
    let mut cal = out.host.settle();
    let before = snapshot();
    let t0 = Instant::now();
    let swept = sweep(&cells, &all, THREADS, None);
    let s = t0.elapsed().as_secs_f64();
    let after = snapshot();
    let factor = out.host.next_factor(&mut cal);
    let runs = |stage| {
        let label = [("stage", stage)];
        after.counter("certcache_miss", &label).unwrap_or(0)
            - before.counter("certcache_miss", &label).unwrap_or(0)
    };
    let reference: Vec<Certs> = match swept {
        Ok(v) if EXPECTED_RUNS.iter().all(|&(stage, n)| runs(stage) == n) => {
            v.iter().map(certs).collect()
        }
        Ok(_) => {
            let got: Vec<_> =
                EXPECTED_RUNS.iter().map(|&(stage, _)| (stage, runs(stage))).collect();
            out.fail(format!("setup: stage runs {got:?}, want {EXPECTED_RUNS:?}"));
            return out;
        }
        Err(e) => {
            out.fail(format!("setup: {e}"));
            return out;
        }
    };
    out.setup.push((s, factor));

    let mut rng = Rng::new(ctx.seed);
    for round in 0..ctx.rounds {
        let traced = ctx.traced_round(round);
        let mut order = all.clone();
        rng.shuffle(&mut order);
        let before = traced.then(snapshot);
        let t0 = Instant::now();
        let swept = sweep(&cells, &order, THREADS, traced.then_some((tracer, round as u64)));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(before) = before {
            out.delta.add(&before, &snapshot());
        }
        let factor = out.host.next_factor(&mut cal);
        if !traced {
            out.untraced_wall_s += ms * factor / 1e3;
        }
        let checked = swept.and_then(|swept| {
            if traced {
                swept.iter().flatten().for_each(|o| out.stages.add_outcome(o));
            }
            match order.iter().zip(&swept).find(|&(&i, o)| certs(o) != reference[i]) {
                Some((&i, _)) => {
                    Err(format!("{}: certificates differ from the warm-up round", label(&cells[i])))
                }
                None => Ok(()),
            }
        });
        if let Err(e) = &checked {
            out.fail(format!("op {round}: {e}"));
        }
        out.samples.push(Sample { ms, factor, ok: checked.is_ok(), traced });
    }

    if ctx.trace {
        // FPS busy time per op with the sequential checker.
        let mut one = StageTimes::default();
        for _ in 0..ONE_THREAD_ROUNDS {
            match sweep(&cells, &all, 1, None) {
                Ok(s) => s.iter().flatten().for_each(|o| one.add_outcome(o)),
                Err(e) => out.fail(format!("one-thread round: {e}")),
            }
        }
        out.fps_1t_ms = one.run_ms(parfait_pipeline::StageKind::Fps) / ONE_THREAD_ROUNDS as f64;
    }
    out
}
