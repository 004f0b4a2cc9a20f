//! Drive mutants through the proof pipeline and record which stage
//! kills each one.
//!
//! A mutant run is exactly the verification a production cell gets:
//! [`Pipeline::verify_cell`] over the stage graph, so the contract
//! battery and the bound analysis gate FPS, and FPS budgets its cycles
//! from the mutant's *own* certified WCET (`2 × wcet + 4096`, or
//! `PARFAIT_TIMEOUT` when set). A mutation that wedges the firmware (a
//! lost return address, a clobbered stack pointer) is cut off a few
//! thousand cycles past its proven bound, not at a production-sized
//! budget.
//!
//! Kill attribution parses the `[stage]` prefix the stage runner wraps
//! every stage error in.

use std::time::{Duration, Instant};

use parfait_knox2::FpsObserver;
use parfait_parallel::parallel_map;
use parfait_pipeline::{Pipeline, StageKind};
use parfait_telemetry::json::Json;

use crate::catalog::{Level, Mutation};

/// The outcome of one mutant run.
pub struct MutantReport {
    /// The mutation class.
    pub class: String,
    /// The level the fault was seeded at.
    pub level: Level,
    /// The stage that killed it, or `None` for a survivor.
    pub killed_by: Option<StageKind>,
    /// The killing stage's error message (empty for survivors).
    pub detail: String,
    /// Wall time for the whole run.
    pub wall: Duration,
}

impl MutantReport {
    /// `"killed:<stage>"` or `"survived"`.
    pub fn verdict(&self) -> String {
        match self.killed_by {
            Some(stage) => format!("killed:{stage}"),
            None => "survived".to_string(),
        }
    }
}

/// Attribute a pipeline error to its stage via the `[stage] ` prefix.
fn parse_kill(err: &str) -> (Option<StageKind>, String) {
    if let Some(rest) = err.strip_prefix('[') {
        if let Some((stage, detail)) = rest.split_once("] ") {
            if let Some(kind) = StageKind::from_name(stage) {
                return (Some(kind), detail.to_string());
            }
        }
    }
    // An unattributed error (build failure, compose error) is *not* a
    // stage kill; surface it verbatim so the harness fails loudly.
    (None, err.to_string())
}

/// Run one mutant through every stage of its cell, in the stage
/// graph's order: a core whose observables break its declared contract
/// dies at the contract battery with a named instruction class instead
/// of as an opaque FPS divergence, and a firmware whose resource
/// envelope is unprovable never reaches the simulator. `threads` is the
/// width of the mutant's stage graph.
pub fn run_mutant(pipeline: &Pipeline, m: &Mutation, threads: usize) -> MutantReport {
    let t0 = Instant::now();
    let app = (m.build)();
    let obs = FpsObserver { telemetry: pipeline.tel.clone(), heartbeat_cycles: 0, cell: 0 };
    let (killed_by, detail) = match pipeline.verify_cell(&app, m.cpu, m.opt, &obs, threads) {
        Ok(_) => (None, String::new()),
        Err(e) => parse_kill(&e),
    };
    MutantReport {
        class: m.class.to_string(),
        level: m.level,
        killed_by,
        detail,
        wall: t0.elapsed(),
    }
}

/// Run a set of mutations, fanning mutants out over the thread budget.
///
/// Each mutant runs its stage graph one wide (mutants die in a few
/// thousand cycles; the parallelism that pays is across mutants, not
/// within one). The shared certificate cache is consulted per stage, so
/// tamper-only mutants reuse the clean software certificates.
pub fn run_catalog(pipeline: &Pipeline, muts: &[Mutation], threads: usize) -> Vec<MutantReport> {
    let indices: Vec<usize> = (0..muts.len()).collect();
    parallel_map(threads.max(1), indices, move |_, i| run_mutant(pipeline, &muts[i], 1))
}

/// The `(level × stage)` detection matrix: how many mutants of each
/// level each stage killed (plus a survivor column).
pub struct Matrix {
    /// One row per level present in the run, in stack order: kills per
    /// stage (in [`StageKind::ALL`] order), then survivors.
    pub rows: Vec<(Level, [usize; StageKind::ALL.len()], usize)>,
}

impl Matrix {
    /// Tally reports into a matrix.
    pub fn tally(reports: &[MutantReport]) -> Matrix {
        let mut rows = Vec::new();
        for level in Level::ALL {
            let mut cells = [0usize; StageKind::ALL.len()];
            let mut survived = 0usize;
            for r in reports.iter().filter(|r| r.level == level) {
                match r.killed_by {
                    Some(stage) => cells[stage.index()] += 1,
                    None => survived += 1,
                }
            }
            if cells.iter().sum::<usize>() + survived > 0 {
                rows.push((level, cells, survived));
            }
        }
        Matrix { rows }
    }

    /// Render as an aligned text table: one column per stage, as wide
    /// as the stage's name, then the survivors.
    pub fn render(&self) -> String {
        let names: Vec<&str> =
            StageKind::ALL.iter().map(|k| k.as_str()).chain(["survived"]).collect();
        let line = |first: &str, cols: Vec<String>| format!("{first:<9} {}\n", cols.join("  "));
        let mut out = line("level", names.iter().map(|n| n.to_string()).collect());
        for (level, cells, survived) in &self.rows {
            let counts = cells.iter().chain([survived]).zip(&names);
            out.push_str(&line(
                level.as_str(),
                counts.map(|(n, name)| format!("{n:>w$}", w = name.len())).collect(),
            ));
        }
        out
    }
}

/// Serialize a run (reports + matrix) for `--json` and the benchmark.
pub fn reports_to_json(reports: &[MutantReport], threads: usize) -> Json {
    let matrix = Matrix::tally(reports);
    Json::obj([
        ("schema", Json::str("parfait-mutatest-v1")),
        ("threads", Json::Int(threads as i64)),
        ("mutants", Json::Int(reports.len() as i64)),
        ("survivors", Json::Int(reports.iter().filter(|r| r.killed_by.is_none()).count() as i64)),
        (
            "results",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("class", Json::str(&r.class)),
                            ("level", Json::str(r.level.as_str())),
                            ("verdict", Json::str(r.verdict())),
                            ("detail", Json::str(&r.detail)),
                            ("wall_ms", Json::Int(r.wall.as_millis() as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "matrix",
            Json::Obj(
                matrix
                    .rows
                    .iter()
                    .map(|(level, cells, survived)| {
                        let mut row: Vec<(String, Json)> = StageKind::ALL
                            .iter()
                            .zip(cells)
                            .map(|(k, c)| (k.as_str().to_string(), Json::Int(*c as i64)))
                            .collect();
                        row.push(("survived".to_string(), Json::Int(*survived as i64)));
                        (level.as_str().to_string(), Json::Obj(row))
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_parsing_attributes_stage_prefixes() {
        let (k, d) = parse_kill("[lockstep] starling: response mismatch");
        assert_eq!(k, Some(StageKind::Lockstep));
        assert_eq!(d, "starling: response mismatch");
        let (k, d) = parse_kill("[fps] trace divergence at cycle 9");
        assert_eq!(k, Some(StageKind::Fps));
        assert_eq!(d, "trace divergence at cycle 9");
        // Unknown stage and plain errors stay unattributed.
        assert_eq!(parse_kill("[warp] x").0, None);
        assert_eq!(parse_kill("compile error: ...").0, None);
    }

    /// The tally, table and JSON matrix of a report set touching every
    /// column, pinned to what the hand-written seven-column format printed.
    #[test]
    fn matrix_tallies_by_level_and_stage() {
        use StageKind::*;
        let kills = [
            (Level::Crypto, Some(Lockstep)),
            (Level::Crypto, None),
            (Level::Codegen, Some(Equivalence)),
            (Level::Codegen, Some(CtCheck)),
            (Level::Codegen, Some(Bound)),
            (Level::Isa, Some(Fps)),
            (Level::Core, Some(Contract)),
            (Level::Core, Some(Contract)),
            (Level::Soc, Some(Fps)),
            (Level::Soc, Some(SpecCheck)),
            (Level::Emulator, Some(Fps)),
            (Level::Emulator, None),
        ];
        let reports: Vec<MutantReport> = kills
            .into_iter()
            .map(|(level, killed_by)| MutantReport {
                class: "m".into(),
                level,
                killed_by,
                detail: String::new(),
                wall: Duration::ZERO,
            })
            .collect();
        let m = Matrix::tally(&reports);
        assert_eq!(m.rows[0], (Level::Crypto, [0, 1, 0, 0, 0, 0, 0], 1));
        assert_eq!(
            m.render(),
            "\
level     speccheck  lockstep  equivalence  ctcheck  bound  fps  contract  survived
crypto            0         1            0        0      0    0         0         1
codegen           0         0            1        1      1    0         0         0
isa               0         0            0        0      0    1         0         0
core              0         0            0        0      0    0         2         0
soc               1         0            0        0      0    1         0         0
emulator          0         0            0        0      0    1         0         1
"
        );
        let json = reports_to_json(&reports, 2);
        assert_eq!(json.get("survivors").and_then(Json::as_i64), Some(2));
        let want = concat!(
            "{",
            r#""crypto":{"speccheck":0,"lockstep":1,"equivalence":0,"ctcheck":0,"bound":0,"fps":0,"contract":0,"survived":1},"#,
            r#""codegen":{"speccheck":0,"lockstep":0,"equivalence":1,"ctcheck":1,"bound":1,"fps":0,"contract":0,"survived":0},"#,
            r#""isa":{"speccheck":0,"lockstep":0,"equivalence":0,"ctcheck":0,"bound":0,"fps":1,"contract":0,"survived":0},"#,
            r#""core":{"speccheck":0,"lockstep":0,"equivalence":0,"ctcheck":0,"bound":0,"fps":0,"contract":2,"survived":0},"#,
            r#""soc":{"speccheck":1,"lockstep":0,"equivalence":0,"ctcheck":0,"bound":0,"fps":1,"contract":0,"survived":0},"#,
            r#""emulator":{"speccheck":0,"lockstep":0,"equivalence":0,"ctcheck":0,"bound":0,"fps":1,"contract":0,"survived":1}"#,
            "}"
        );
        assert_eq!(json.get("matrix").expect("matrix").to_string(), want);
    }
}
