//! Differential tests for the proof pipeline's content-addressed
//! certificate cache.
//!
//! The contract under test (ISSUE 3 / DESIGN.md §9):
//!
//! 1. a fresh cache is cold: every stage runs and stores a certificate;
//! 2. a warm re-run through a brand-new pipeline handle hits the
//!    on-disk cache in every stage, and the certificates are
//!    **byte-identical** to the cold run's;
//! 3. mutating one byte of an app's littlec source re-runs exactly the
//!    source-keyed stages (lockstep, equivalence, FPS) while the
//!    behavior-keyed spec census and the artifact-keyed ctcheck
//!    (whitespace compiles to identical IR/asm) stay cached — and a
//!    second app sharing the cache directory stays fully cached
//!    throughout;
//! 4. cached certificates are byte-identical to what a cache-disabled
//!    pipeline computes from scratch;
//! 5. a platform matrix verified as one stage graph runs each shared
//!    stage once and reports it as run in one cell only.
//!
//! The fixture is the tiny token HSM (see `tests/common`), whose FPS
//! runs take only thousands of cycles, parameterized by its `prove`
//! multiplier so two behaviorally distinct apps share one definition.

mod common;

use std::path::PathBuf;

use common::{cmd, CMD, RESP, STATE, TOKEN_LC};
use parfait::lockstep::Codec;
use parfait::StateMachine;
use parfait_hsms::platform::{AppSizes, Cpu};
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{app_from_codec, AppPipeline, CertCache, Pipeline, StageKind, StdApp};
use parfait_starling::StarlingConfig;
use parfait_telemetry::metrics::{Metrics, MetricsSnapshot};

/// The token spec as a real struct (not `FnMachine`, whose step is a
/// plain fn pointer) so the `prove` multiplier can be a parameter.
#[derive(Clone)]
struct TokenSpec {
    mult: u32,
}

impl StateMachine for TokenSpec {
    type State = (u32, u32);
    type Command = Vec<u8>;
    type Response = Vec<u8>;

    fn init(&self) -> (u32, u32) {
        (0, 0)
    }

    fn step(&self, s: &(u32, u32), c: &Vec<u8>) -> ((u32, u32), Vec<u8>) {
        let mut resp = vec![0u8; RESP];
        if c.len() != CMD {
            resp[0] = 0xFF;
            return (*s, resp);
        }
        let arg = u32::from_le_bytes([c[1], c[2], c[3], c[4]]);
        match c[0] {
            1 => {
                resp[0] = 1;
                ((arg, s.1), resp)
            }
            2 => {
                let c2 = s.1.wrapping_add(arg);
                resp[0] = 2;
                resp[1..5].copy_from_slice(&c2.to_le_bytes());
                ((s.0, c2), resp)
            }
            3 => {
                resp[0] = 3;
                let v = s.0.wrapping_mul(self.mult).wrapping_add(s.1) ^ arg;
                resp[1..5].copy_from_slice(&v.to_le_bytes());
                (*s, resp)
            }
            _ => {
                resp[0] = 0xFF;
                (*s, resp)
            }
        }
    }
}

struct TokenCodec;

impl Codec for TokenCodec {
    type Spec = TokenSpec;
    type CI = Vec<u8>;
    type RI = Vec<u8>;
    type SI = Vec<u8>;

    fn encode_command(&self, c: &Vec<u8>) -> Vec<u8> {
        c.clone()
    }
    fn decode_command(&self, c: &Vec<u8>) -> Option<Vec<u8>> {
        (c.len() == CMD && matches!(c[0], 1..=3)).then(|| c.clone())
    }
    fn encode_response(&self, r: Option<&Vec<u8>>) -> Vec<u8> {
        match r {
            Some(v) => v.clone(),
            None => {
                let mut e = vec![0u8; RESP];
                e[0] = 0xFF;
                e
            }
        }
    }
    fn decode_response(&self, r: &Vec<u8>) -> Vec<u8> {
        r.clone()
    }
    fn encode_state(&self, s: &(u32, u32)) -> Vec<u8> {
        let mut out = Vec::with_capacity(STATE);
        out.extend_from_slice(&s.0.to_le_bytes());
        out.extend_from_slice(&s.1.to_le_bytes());
        out
    }
}

const MULT_A: u32 = 2654435761; // the multiplier baked into TOKEN_LC
const MULT_B: u32 = 1013904223;

/// A token app pipeline: `slug` names the cache entries, `source` is
/// the littlec implementation, `mult` parameterizes the matching spec.
fn token_app(slug: &str, source: String, mult: u32) -> AppPipeline {
    app_from_codec(
        "token HSM",
        slug,
        source,
        AppSizes { state: STATE, command: CMD, response: RESP },
        TokenCodec,
        TokenSpec { mult },
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

fn token_a() -> AppPipeline {
    token_app("token-a", TOKEN_LC.to_string(), MULT_A)
}

fn token_b() -> AppPipeline {
    let source_b = TOKEN_LC.replace(&MULT_A.to_string(), &MULT_B.to_string());
    assert_ne!(source_b, TOKEN_LC, "multiplier substitution must change the source");
    token_app("token-b", source_b, MULT_B)
}

fn private_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parfait-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn verify(pipeline: &Pipeline, app: &AppPipeline) -> parfait_pipeline::CellReport {
    pipeline
        .verify_cell(app, Cpu::Ibex, OptLevel::O2, &FpsObserver::default(), 2)
        .expect("token app verifies")
}

fn hits_by_stage(cell: &parfait_pipeline::CellReport) -> Vec<(StageKind, bool)> {
    cell.stages.iter().map(|s| (s.certificate.stage, s.cache_hit)).collect()
}

#[test]
fn one_byte_source_change_reruns_only_downstream_stages() {
    let dir = private_dir("pipeline-cache-diff");
    let a = token_a();
    let b = token_b();

    // Cold: every stage of both apps runs and is stored.
    let cold = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let cell_a = verify(&cold, &a);
    let cell_b = verify(&cold, &b);
    assert!(cell_a.stages.iter().all(|s| !s.cache_hit), "fresh cache must be cold");
    assert!(cell_b.stages.iter().all(|s| !s.cache_hit));
    assert_eq!(cell_a.composed.claim.0, "app-spec");
    assert_eq!(cell_a.composed.claim.1, "soc(Ibex)");
    // Distinct sources ⇒ distinct cache entries throughout.
    assert_ne!(cell_a.composed.inputs, cell_b.composed.inputs);

    // Warm, through a brand-new handle (empty memo ⇒ on-disk path):
    // every stage hits, and certificates are byte-identical.
    let warm = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let cell_a2 = verify(&warm, &a);
    assert!(
        cell_a2.fully_cached(),
        "unchanged app must be fully cached: {:?}",
        hits_by_stage(&cell_a2)
    );
    assert!(
        cell_a2.stages.iter().any(|s| s.certificate.stage == StageKind::CtCheck),
        "the cell must include a ctcheck certificate"
    );
    assert_eq!(cell_a2.composed.canonical(), cell_a.composed.canonical());
    for (fresh, cached) in cell_a.stages.iter().zip(&cell_a2.stages) {
        assert_eq!(cached.certificate.canonical(), fresh.certificate.canonical());
    }

    // Mutate one byte of A's source (behavior-preserving whitespace):
    // the behavior-keyed spec census stays cached, and so do the
    // artifact-keyed ctcheck and bound stages (identical source modulo
    // whitespace compiles to identical IR and asm) and the contract
    // check (keyed on the core's declared contract, not the firmware);
    // every source-keyed stage (lockstep, equivalence, FPS) re-runs.
    let mutated_source = TOKEN_LC.replace("u32 arg", "u32  arg");
    assert_eq!(mutated_source.len(), TOKEN_LC.len() + 1);
    let a_mut = token_app("token-a", mutated_source, MULT_A);
    let cell_a3 = verify(&warm, &a_mut);
    assert_eq!(
        hits_by_stage(&cell_a3),
        vec![
            (StageKind::SpecCheck, true),
            (StageKind::Lockstep, false),
            (StageKind::Equivalence, false),
            (StageKind::CtCheck, true),
            (StageKind::Bound, true),
            (StageKind::Fps, false),
            (StageKind::Contract, true),
        ],
        "a source-only change must re-run exactly the stages keyed on the source"
    );

    // The untouched app's cells stay cache hits.
    let cell_b2 = verify(&warm, &b);
    assert!(
        cell_b2.fully_cached(),
        "untouched app must stay cached: {:?}",
        hits_by_stage(&cell_b2)
    );
    assert_eq!(cell_b2.composed.canonical(), cell_b.composed.canonical());

    // Cached certificates are byte-identical to a cache-disabled
    // from-scratch computation.
    let scratch = Pipeline::new(CertCache::disabled(), Default::default());
    let cell_fresh = verify(&scratch, &a_mut);
    assert!(!cell_fresh.stages.iter().any(|s| s.cache_hit));
    assert_eq!(cell_fresh.composed.canonical(), cell_a3.composed.canonical());

    std::fs::remove_dir_all(&dir).ok();
}

/// Editing a core's leakage contract invalidates exactly the stages
/// that consume it: the contract check misses under a revision-bumped
/// contract, while a full re-verify against the unedited exported
/// contract stays fully cached — the software stages never saw the
/// edit. (Key-level sensitivity of the FPS and ctcheck stages to the
/// contract text is covered by the pipeline crate's unit tests.)
#[test]
fn contract_edit_invalidates_exactly_the_dependent_stages() {
    let dir = private_dir("pipeline-cache-contract-edit");
    let a = token_a();

    let cold = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    verify(&cold, &a);

    let warm = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let hit = warm.contract_stage(&a, Cpu::Ibex).expect("exported contract holds");
    assert!(hit.cache_hit, "unchanged contract must hit the cold run's certificate");

    // Re-declare the contract (revision bump, clauses unchanged): the
    // battery re-runs — and still passes, since the clauses match the
    // core — under a fresh cache key.
    let mut edited = Pipeline::core_contract(Cpu::Ibex).clone();
    edited.revision += 1;
    let miss = warm
        .contract_stage_with(&a, Cpu::Ibex, &edited)
        .expect("revision bump does not change clause semantics");
    assert!(!miss.cache_hit, "an edited contract must not reuse the old certificate");
    assert_ne!(miss.certificate.inputs, hit.certificate.inputs);

    // Nothing else was disturbed: the full cell against the exported
    // contract is still fully cached.
    let cell = verify(&warm, &a);
    assert!(
        cell.fully_cached(),
        "a contract-edit probe must not invalidate unrelated stages: {:?}",
        hits_by_stage(&cell)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Warm-run determinism across *processes*: run against a shared cache
/// directory (`PARFAIT_CACHE_DIR` when set — CI invokes this test twice
/// with the same value to prove it — else a private dir), and check the
/// result is byte-identical to a cache-disabled from-scratch run
/// whether the shared cache was cold or pre-populated.
#[test]
fn shared_cache_runs_are_deterministic() {
    let (dir, ephemeral) = match std::env::var_os("PARFAIT_CACHE_DIR") {
        Some(d) if !d.is_empty() => (PathBuf::from(d), false),
        _ => (private_dir("pipeline-cache-shared"), true),
    };
    let a = token_a();

    let shared = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let cell = verify(&shared, &a);

    let scratch = Pipeline::new(CertCache::disabled(), Default::default());
    let fresh = verify(&scratch, &a);
    assert_eq!(cell.composed.canonical(), fresh.composed.canonical());
    for (c, f) in cell.stages.iter().zip(&fresh.stages) {
        assert_eq!(c.certificate.canonical(), f.certificate.canonical());
    }

    // A second pass in the same process must be fully cached either way.
    let again = verify(&shared, &a);
    assert!(again.fully_cached());

    if ephemeral {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Adversary mutants never pollute the clean firmware's cache: after a
/// mutant run through the same warm pipeline, the clean app's
/// certificates still hit and are byte-identical to the pre-mutant warm
/// snapshot. The mutants chosen here are the sharpest case — tamper-only
/// mutations of the *same source and slug* as the clean fixture, so a
/// keying bug that ignored the tamper fingerprint would alias them onto
/// the clean entries.
#[test]
fn mutant_runs_leave_clean_certificates_intact() {
    use parfait_adversary::{catalog, controls, run_mutant};

    let dir = private_dir("pipeline-cache-adversary");
    let clean = controls()
        .into_iter()
        .find(|c| c.class == "clean-token")
        .expect("clean-token control exists");
    let clean_app = (clean.build)();

    // Warm the cache with the clean fixture, then snapshot.
    let cold = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let cell_cold = verify(&cold, &clean_app);
    assert!(cell_cold.stages.iter().all(|s| !s.cache_hit));
    let warm = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let cell_warm = verify(&warm, &clean_app);
    assert!(
        cell_warm.fully_cached(),
        "clean fixture must be warm: {:?}",
        hits_by_stage(&cell_warm)
    );
    let snapshot: Vec<String> =
        cell_warm.stages.iter().map(|s| s.certificate.canonical()).collect();

    // Run tamper-only mutants of the same source through the same
    // pipeline handle (one killed at the wire, one at equivalence).
    for class in ["soc-tx-double-commit", "cc-dead-store"] {
        let m = catalog().into_iter().find(|m| m.class == class).unwrap();
        let r = run_mutant(&warm, &m, 1);
        assert!(r.killed_by.is_some(), "{class} must be killed, got: {}", r.detail);
    }

    // The clean firmware's certificates: still hitting, still identical.
    let cell_after = verify(&warm, &clean_app);
    assert!(
        cell_after.fully_cached(),
        "mutant runs evicted clean certificates: {:?}",
        hits_by_stage(&cell_after)
    );
    let after: Vec<String> = cell_after.stages.iter().map(|s| s.certificate.canonical()).collect();
    assert_eq!(after, snapshot, "mutant runs corrupted clean certificates");
    assert_eq!(cell_after.composed.canonical(), cell_warm.composed.canonical());

    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupt on-disk entries are discarded *eagerly*: the failed lookup
/// itself unlinks the file, so a corrupt certificate never lingers to
/// be re-parsed by every subsequent process (regression: the discard
/// used to leave the file in place until the next store overwrote it).
/// Both corruption shapes are covered — unparseable bytes, and a valid
/// certificate sitting under the wrong key (stage mismatch).
#[test]
fn corrupt_cache_entries_are_unlinked_on_first_lookup() {
    let dir = private_dir("pipeline-cache-corrupt");
    let a = token_a();
    let cold = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let out = cold.speccheck_stage(&a).expect("speccheck passes");
    assert!(!out.cache_hit);
    let inputs = out.certificate.inputs;
    let cert_file = |d: &PathBuf| -> Option<PathBuf> {
        std::fs::read_dir(d).ok().and_then(|rd| {
            rd.filter_map(Result::ok).map(|e| e.path()).find(|p| {
                p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("speccheck-"))
            })
        })
    };
    let path = cert_file(&dir).expect("cold run stored a speccheck certificate");

    // Shape 1: unparseable bytes. A fresh handle (empty memo, so the
    // disk path runs) must miss AND remove the file right then — not
    // on some later store.
    std::fs::write(&path, b"{ definitely not a certificate").unwrap();
    let fresh = CertCache::at(dir.clone());
    assert_eq!(fresh.lookup(StageKind::SpecCheck, inputs), None, "corrupt entry must miss");
    assert!(!path.exists(), "the failed lookup itself must unlink the corrupt file");

    // Shape 2: a well-formed certificate under the wrong key. Re-store
    // the real certificate, then overwrite it with a lockstep
    // certificate's bytes: parseable, but the stage doesn't match the
    // key — still a miss, still eagerly unlinked.
    fresh.store(&out.certificate);
    let lockstep = cold.lockstep_stage(&a).expect("lockstep passes");
    std::fs::write(&path, lockstep.certificate.canonical()).unwrap();
    let fresh2 = CertCache::at(dir.clone());
    assert_eq!(fresh2.lookup(StageKind::SpecCheck, inputs), None, "mismatched stage must miss");
    assert!(!path.exists(), "the mismatched entry must be unlinked too");

    // The cache recovers: the next run recomputes, re-stores, and a
    // brand-new handle hits a byte-identical certificate.
    let recovered = Pipeline::new(CertCache::at(dir.clone()), Default::default());
    let out2 = recovered.speccheck_stage(&a).expect("speccheck recomputes");
    assert!(!out2.cache_hit, "recompute after discard");
    assert_eq!(out2.certificate.canonical(), out.certificate.canonical());
    assert!(path.exists(), "the recompute re-stored the certificate");

    std::fs::remove_dir_all(&dir).ok();
}

/// The standard apps expose distinct, stable cache identities (guards
/// against a refactor accidentally collapsing app slugs, which would
/// alias their cache entries).
#[test]
fn std_app_slugs_are_distinct() {
    let slugs: Vec<&str> = StdApp::ALL.iter().map(|a| a.slug()).collect();
    let mut unique = slugs.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), slugs.len());
}

/// `verify_matrix` plans both cores' cells into one stage graph: the
/// software stages they share run once and report as run in exactly
/// one cell (a zero-wall cache hit in the other), the cache-miss ledger
/// is the edit loop's, and the certificates equal single-cell runs.
#[test]
fn verify_matrix_runs_and_reports_each_shared_stage_once() {
    let app = StdApp::Hasher.pipeline();
    let (cpus, opt, obs) = ([Cpu::Ibex, Cpu::Pico], OptLevel::O2, FpsObserver::default());
    let metrics = Metrics::new();
    let pipeline = Pipeline::new(CertCache::disabled_with(metrics.clone()), Default::default());
    let before = metrics.snapshot();
    let cells = pipeline.verify_matrix(&app, &cpus, opt, &obs, 2);
    let after = metrics.snapshot();
    let reports: Vec<_> =
        cells.iter().map(|(cpu, r)| r.as_ref().unwrap_or_else(|e| panic!("{cpu}: {e}"))).collect();

    use StageKind::*;
    for stage in [SpecCheck, Lockstep, Equivalence, CtCheck] {
        let outcomes: Vec<_> = reports
            .iter()
            .map(|r| r.stages.iter().find(|s| s.certificate.stage == stage).expect("planned"))
            .collect();
        let ran: Vec<_> = outcomes.iter().filter(|s| !s.cache_hit).collect();
        assert_eq!(ran.len(), 1, "{stage} reports as run in exactly one cell");
        for waiter in outcomes.iter().filter(|s| s.cache_hit) {
            assert_eq!(waiter.wall, std::time::Duration::ZERO, "{stage}");
            assert_eq!(waiter.certificate, ran[0].certificate, "{stage}");
        }
    }
    let ledger = [
        (SpecCheck, 1),
        (Lockstep, 1),
        (Equivalence, 1),
        (CtCheck, 1),
        (Contract, 2),
        (Bound, 2),
        (Fps, 2),
    ];
    for (stage, want) in ledger {
        let label = [("stage", stage.as_str())];
        let misses = |s: &MetricsSnapshot| s.counter("certcache_miss", &label).unwrap_or(0);
        assert_eq!(misses(&after) - misses(&before), want, "{stage} cache misses");
    }

    for ((cpu, _), report) in cells.iter().zip(reports) {
        let alone = Pipeline::new(CertCache::disabled(), Default::default())
            .verify_cell(&app, *cpu, opt, &obs, 1)
            .expect("a single cell verifies");
        assert_eq!(report.composed.canonical(), alone.composed.canonical(), "{cpu}");
    }
}
