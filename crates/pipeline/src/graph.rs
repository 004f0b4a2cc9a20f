//! The stage graph: one table, one planner, one runner.
//!
//! `STAGES` declares every proof stage once, one row per
//! [`StageKind`] in compose-chain order: the cell coordinates that key
//! its node (and so which cells share it), the stages that must succeed
//! before it runs, the stages whose certificates it reads, and the
//! [`Pipeline`] method that runs it. [`run_cells`] plans a list of
//! [`Cell`]s into one deduplicated node graph and runs it on the
//! [`sched`](crate::serve::sched) Kahn scheduler; every caller of the
//! pipeline goes through it. A cell's result is its certificates
//! composed in chain order, or the error of the first failed or skipped
//! node in chain order — for the table's edges, the first failure the
//! stages' sequential execution order would have hit. A node several
//! cells share reports as run in the first cell that plans it and as a
//! zero-wall cache hit in the others.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;

use crate::apps::AppPipeline;
use crate::certificate::compose;
use crate::certificate::StageKind::{self, *};
use crate::pipeline::{CellReport, Pipeline, StageOutcome};
use crate::serve::sched::{self, DagNode, Deps};

/// A stage's runner, handed its cell and its dependencies' outcomes.
type Run = fn(&Cell<'_>, &Deps<NodeKey, StageOutcome>) -> Result<StageOutcome, String>;

/// The cell coordinates a stage's node is keyed on: the cells of a run
/// that agree on them share the node.
#[derive(Clone, Copy)]
pub(crate) struct Keys {
    cpu: bool,
    opt: bool,
}

const NONE: Keys = Keys { cpu: false, opt: false };
const OPT: Keys = Keys { cpu: false, opt: true };
const CPU: Keys = Keys { cpu: true, opt: false };
const CPU_OPT: Keys = Keys { cpu: true, opt: true };

/// One row of the stage table.
pub(crate) struct StageRow {
    /// The stage.
    pub kind: StageKind,
    /// The cell coordinates its node is keyed on.
    pub keys: Keys,
    /// Fail-fast predecessors; an edge to a stage outside the run is
    /// dropped.
    pub after: &'static [StageKind],
    /// Stages whose certificates it reads: also edges, and pulled into
    /// every run that includes this stage.
    pub reads: &'static [StageKind],
    run: Run,
}

const fn row(
    kind: StageKind,
    keys: Keys,
    after: &'static [StageKind],
    reads: &'static [StageKind],
    run: Run,
) -> StageRow {
    StageRow { kind, keys, after, reads, run }
}

/// The stage graph, one row per [`StageKind`] in compose-chain order.
/// The software proof's levels are independent (IPR is transitive), so
/// lockstep, equivalence and ctcheck are siblings after speccheck. The
/// hardware proof waits for all of them: the cheap contract battery
/// and the whole software proof gate the bound analysis, so a leaky
/// core fails with a named instruction class before anything
/// simulates, and FPS reads the bound certificate's WCET as its cycle
/// budget.
#[rustfmt::skip]
pub(crate) static STAGES: [StageRow; StageKind::ALL.len()] = [
    //  stage        keyed on  after                                        reads
    row(SpecCheck,   NONE,     &[],                                         &[],      |c, _| c.pipeline.speccheck_stage(c.app)),
    row(Lockstep,    NONE,     &[SpecCheck],                                &[],      |c, _| c.pipeline.lockstep_stage(c.app)),
    row(Equivalence, OPT,      &[SpecCheck],                                &[],      |c, _| c.pipeline.equivalence_stage(c.app, c.opt)),
    row(CtCheck,     OPT,      &[SpecCheck],                                &[],      |c, _| c.pipeline.ctcheck_stage(c.app, c.opt)),
    row(Bound,       CPU_OPT,  &[Lockstep, Equivalence, CtCheck, Contract], &[],      |c, _| c.pipeline.bound_stage(c.app, c.cpu, c.opt)),
    row(Fps,         CPU_OPT,  &[],                                         &[Bound], |c, d| {
        c.pipeline.fps_stage_bounded(c.app, c.cpu, c.opt, &c.obs, 1, read(c, d, Bound))
    }),
    row(Contract,    CPU,      &[SpecCheck],                                &[],      |c, _| c.pipeline.contract_stage(c.app, c.cpu)),
];

/// A set of stages, iterated in compose-chain order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSet(u32);

impl StageSet {
    /// Every stage: a full cell.
    pub fn all() -> StageSet {
        StageSet::of(&StageKind::ALL)
    }

    /// Exactly `kinds`.
    pub fn of(kinds: &[StageKind]) -> StageSet {
        StageSet(kinds.iter().fold(0, |m, k| m | 1 << k.index()))
    }

    /// The stages not keyed on the platform: the software proof.
    pub fn software() -> StageSet {
        StageSet::of(&STAGES.iter().filter(|r| !r.keys.cpu).map(|r| r.kind).collect::<Vec<_>>())
    }

    /// The stages keyed on the platform: the hardware proof.
    pub fn hardware() -> StageSet {
        StageSet(StageSet::all().0 & !StageSet::software().0)
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: StageKind) -> bool {
        self.0 & 1 << kind.index() != 0
    }

    /// Whether the set selects no stage.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Both sets' stages.
    pub fn union(self, other: StageSet) -> StageSet {
        StageSet(self.0 | other.0)
    }

    /// The members, in compose-chain order.
    fn iter(self) -> impl Iterator<Item = StageKind> {
        StageKind::ALL.into_iter().filter(move |&k| self.contains(k))
    }

    /// This set plus every stage a member reads, transitively.
    fn with_reads(self) -> StageSet {
        let grown = self.iter().fold(self, |s, k| s.union(StageSet::of(STAGES[k.index()].reads)));
        if grown == self {
            self
        } else {
            grown.with_reads()
        }
    }
}

/// Some stages of one (app × cpu × opt) cell, on a pipeline.
pub struct Cell<'a> {
    /// The pipeline (cache and telemetry) to run on.
    pub pipeline: &'a Pipeline,
    /// The application under verification.
    pub app: &'a AppPipeline,
    /// The platform (ignored by stages not keyed on it).
    pub cpu: Cpu,
    /// The optimization level (ignored by stages not keyed on it).
    pub opt: OptLevel,
    /// The stages to run, plus whatever they read.
    pub stages: StageSet,
    /// FPS heartbeat observer (of the first cell, where cells share
    /// an FPS node).
    pub obs: FpsObserver,
}

/// A planned node: one stage of one (pipeline, app) pair, at the
/// coordinates its row keys on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct NodeKey {
    /// The pipeline and app by address: cells on the same objects
    /// share nodes.
    scope: (usize, usize),
    stage: StageKind,
    cpu: Option<Cpu>,
    opt: Option<OptLevel>,
}

fn node_key(cell: &Cell<'_>, stage: StageKind) -> NodeKey {
    let row = &STAGES[stage.index()];
    NodeKey {
        scope: (cell.pipeline as *const Pipeline as usize, cell.app as *const AppPipeline as usize),
        stage,
        cpu: row.keys.cpu.then_some(cell.cpu),
        opt: row.keys.opt.then_some(cell.opt),
    }
}

/// The outcome of `stage`, which the running row reads.
fn read<'d>(
    cell: &Cell<'_>,
    deps: &'d Deps<NodeKey, StageOutcome>,
    stage: StageKind,
) -> &'d StageOutcome {
    deps.get(&node_key(cell, stage)).expect("a read stage is a dependency of its reader")
}

/// How a planned node runs: production calls the row's method, tests
/// substitute synthetic runners.
type Runner<'r> = dyn Fn(&StageRow, &Cell<'_>, &Deps<NodeKey, StageOutcome>) -> Result<StageOutcome, String>
    + Sync
    + 'r;

/// Plan `cells` into one deduplicated node graph, run it on a
/// `width`-wide pool, and return each cell's result in order.
pub fn run_cells(width: usize, cells: &[Cell<'_>]) -> Vec<Result<CellReport, String>> {
    run_with(width, cells, &|row, cell, deps| (row.run)(cell, deps))
}

fn run_with<'a>(
    width: usize,
    cells: &'a [Cell<'a>],
    run: &'a Runner<'a>,
) -> Vec<Result<CellReport, String>> {
    let Some(first) = cells.first() else { return Vec::new() };
    let mut index: HashMap<NodeKey, usize> = HashMap::new();
    let mut nodes: Vec<DagNode<'a, NodeKey, StageOutcome>> = Vec::new();
    let mut chains = Vec::with_capacity(cells.len());
    for cell in cells {
        let stages = cell.stages.with_reads();
        let chain: Vec<NodeKey> = stages.iter().map(|kind| node_key(cell, kind)).collect();
        for (&key, kind) in chain.iter().zip(stages.iter()) {
            let row = &STAGES[kind.index()];
            let after = row.after.iter().filter(|&&p| stages.contains(p));
            let deps = after.chain(row.reads).map(|&p| node_key(cell, p));
            match index.get(&key) {
                // A node shared by runs of different stage sets waits
                // for every predecessor any of them includes.
                Some(&i) => {
                    let node = &mut nodes[i];
                    node.deps.extend(deps.filter(|d| !node.deps.contains(d)).collect::<Vec<_>>());
                }
                None => {
                    index.insert(key, nodes.len());
                    // The one place a stage error gets its prefix.
                    let job = Box::new(move |deps: &Deps<NodeKey, StageOutcome>| {
                        run(row, cell, deps).map_err(|e| format!("[{kind}] {e}"))
                    });
                    nodes.push(DagNode { key, deps: deps.collect(), run: job });
                }
            }
        }
        chains.push(chain);
    }
    let results = match sched::execute(width, first.pipeline.metrics(), nodes) {
        Ok(results) => results,
        // The table's edges are acyclic and point at planned nodes
        // (unit-tested below); fail every cell loudly if that breaks.
        Err(e) => return cells.iter().map(|_| Err(format!("scheduler error: {e}"))).collect(),
    };
    // A shared node ran in the first cell that plans it; the others
    // see what a single-flight waiter sees, a hit with zero wall, so
    // summing the cells' stage walls counts each run once.
    let mut reported = HashSet::new();
    cells
        .iter()
        .zip(chains)
        .map(|(cell, chain)| {
            let stages: Vec<StageOutcome> = chain
                .iter()
                .map(|k| {
                    let outcome = results[k].clone()?;
                    Ok(if reported.insert(*k) {
                        outcome
                    } else {
                        StageOutcome { wall: Duration::ZERO, cache_hit: true, fps: None, ..outcome }
                    })
                })
                .collect::<Result<_, String>>()?;
            let certs: Vec<_> = stages.iter().map(|s| s.certificate.clone()).collect();
            let composed = compose(&certs).map_err(|e| e.to_string())?;
            Ok(CellReport { cpu: cell.cpu, opt: cell.opt, stages, composed })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};

    use super::*;
    use crate::artifact::ArtifactHasher;
    use crate::cache::CertCache;
    use crate::certificate::{StageCertificate, SCHEMA};

    /// The order the hand-written runners executed stages in.
    const SEQUENTIAL: [StageKind; 7] =
        [SpecCheck, Lockstep, Equivalence, CtCheck, Contract, Bound, Fps];

    /// Run one hasher cell of `stages` with runners that fail exactly
    /// the stages in `fails`; the cell's result and the stages in the
    /// order they started.
    fn run_synthetic(
        stages: StageSet,
        fails: StageSet,
    ) -> (Result<CellReport, String>, Vec<StageKind>) {
        let pipeline = Pipeline::new(CertCache::disabled(), Default::default());
        let app = crate::apps::StdApp::Hasher.pipeline();
        let (cpu, opt, obs) = (Cpu::Ibex, OptLevel::O2, FpsObserver::default());
        let cells = [Cell { pipeline: &pipeline, app: &app, cpu, opt, stages, obs }];
        let started = Mutex::new(Vec::new());
        let run: &Runner<'_> = &|row, _, _| {
            started.lock().unwrap().push(row.kind);
            if fails.contains(row.kind) {
                return Err("boom".into());
            }
            Ok(synthetic(row.kind))
        };
        let result = run_with(2, &cells, run).pop().expect("one result per cell");
        (result, started.into_inner().unwrap())
    }

    /// A fresh synthetic outcome of `kind`.
    fn synthetic(kind: StageKind) -> StageOutcome {
        let certificate = StageCertificate {
            schema: SCHEMA,
            stage: kind,
            app: "synthetic".into(),
            claim: ("x".into(), "x".into()),
            inputs: ArtifactHasher::new("synthetic").field_str("stage", kind.as_str()).finish(),
            stats: Vec::new(),
        };
        StageOutcome { certificate, wall: Duration::ZERO, cache_hit: false, fps: None }
    }

    #[test]
    fn rows_follow_the_chain_and_edges_respect_coordinates() {
        for (row, kind) in STAGES.iter().zip(StageKind::ALL) {
            assert_eq!(row.kind, kind, "rows are in compose-chain order");
            // An edge to a stage keyed on a coordinate this one is not
            // would be ambiguous across the cells sharing this node.
            for pred in row.after.iter().chain(row.reads).map(|p| &STAGES[p.index()]) {
                assert!(row.keys.cpu || !pred.keys.cpu, "{kind} after {}", pred.kind);
                assert!(row.keys.opt || !pred.keys.opt, "{kind} after {}", pred.kind);
            }
        }
    }

    #[test]
    fn first_failure_matches_the_sequential_order_for_every_failure_set() {
        for mask in 0u32..1 << SEQUENTIAL.len() {
            let failing: Vec<StageKind> = SEQUENTIAL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| mask & 1 << i != 0)
                .map(|(_, k)| k)
                .collect();
            let fails = StageSet::of(&failing);
            let (result, started) = run_synthetic(StageSet::all(), fails);
            match failing.first() {
                Some(first) => {
                    assert_eq!(result.unwrap_err(), format!("[{first}] boom"), "{failing:?}")
                }
                None => assert_eq!(result.expect("nothing fails").stages.len(), STAGES.len()),
            }
            // No node starts before each predecessor has succeeded.
            for (i, kind) in started.iter().enumerate() {
                let row = &STAGES[kind.index()];
                for pred in row.after.iter().chain(row.reads) {
                    assert!(started[..i].contains(pred), "{failing:?}: {kind} before {pred}");
                    assert!(!fails.contains(*pred), "{failing:?}: {kind} ran after {pred} failed");
                }
            }
        }
    }

    #[test]
    fn stage_sets_plan_their_stages_and_reads_only() {
        let planned = |stages| run_synthetic(stages, StageSet::default()).1;
        assert_eq!(planned(StageSet::software()), [SpecCheck, Lockstep, Equivalence, CtCheck]);
        // Hardware-only drops the edges into the software stages, so it
        // stays contract → bound → FPS.
        assert_eq!(planned(StageSet::hardware()), [Contract, Bound, Fps]);
        // FPS reads bound's WCET, so `{fps}` plans bound too.
        assert_eq!(planned(StageSet::of(&[Fps])), [Bound, Fps]);
    }

    #[test]
    fn software_siblings_overlap_and_bound_waits_for_them_and_the_contract() {
        const SIBLINGS: [StageKind; 3] = [Lockstep, Equivalence, CtCheck];
        let pipeline = Pipeline::new(CertCache::disabled(), Default::default());
        let app = crate::apps::StdApp::Hasher.pipeline();
        let (cpu, opt, obs) = (Cpu::Ibex, OptLevel::O2, FpsObserver::default());
        let stages = StageSet::all();
        let cells = [Cell { pipeline: &pipeline, app: &app, cpu, opt, stages, obs }];
        // Each of bound's predecessors in turn stays in its runner a
        // while, so a missing edge lets bound start while it runs.
        for held in [Lockstep, Equivalence, CtCheck, Contract] {
            // (stage, started) in the order stages started and succeeded.
            let events = Mutex::new(Vec::new());
            // Siblings inside their runners, whether two ever were at
            // once, and whether bound has started. Every wait ends at a
            // timeout, so a wrong schedule fails an assertion below
            // instead of hanging the test.
            let state = (Mutex::new((0usize, false, false)), Condvar::new());
            let deadline = Instant::now() + Duration::from_secs(10);
            let run: &Runner<'_> = &|row, _, _| {
                events.lock().unwrap().push((row.kind, true));
                let (lock, cv) = &state;
                let mut st = lock.lock().unwrap();
                let sibling = SIBLINGS.contains(&row.kind);
                st.0 += usize::from(sibling);
                st.1 |= st.0 >= 2;
                st.2 |= row.kind == Bound;
                cv.notify_all();
                if sibling {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    st = cv.wait_timeout_while(st, wait, |s| !s.1).unwrap().0;
                    st.0 -= 1;
                }
                if row.kind == held {
                    let hold = Duration::from_millis(100);
                    st = cv.wait_timeout_while(st, hold, |s| !s.2).unwrap().0;
                }
                drop(st);
                events.lock().unwrap().push((row.kind, false));
                Ok(synthetic(row.kind))
            };
            let report = run_with(2, &cells, run).pop().expect("one result per cell");
            assert_eq!(report.expect("nothing fails").stages.len(), STAGES.len());
            assert!(state.0.lock().unwrap().1, "no two software siblings ran at once");
            let events = events.into_inner().unwrap();
            let at = |kind, started| events.iter().position(|&e| e == (kind, started)).unwrap();
            for pred in [Lockstep, Equivalence, CtCheck, Contract] {
                let (done, bound) = (at(pred, false), at(Bound, true));
                assert!(done < bound, "{held} held: bound started before {pred} succeeded");
            }
        }
    }
}
