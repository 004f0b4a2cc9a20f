//! End-to-end checks on the adversary catalog (DESIGN.md §12): the
//! taxonomy has the promised shape, representative mutants die at
//! exactly the stage the design claims, clean controls survive, and
//! the parallel FPS checker renders byte-identical verdicts on mutants
//! regardless of the thread budget.
//!
//! The full catalog (including the multi-second ctcheck and
//! timeout-kill classes) runs under `mutatest` against the ratcheted
//! `mutation_baseline.json` in CI; this suite keeps the cheap classes
//! under plain `cargo test` so a checker regression surfaces even
//! without the baseline gate.

use parfait_adversary::{catalog, controls, run_mutant, Level, Mutation};
use parfait_pipeline::{CertCache, Pipeline, StageKind};
use parfait_telemetry::Telemetry;

fn pipeline() -> Pipeline {
    Pipeline::new(CertCache::disabled(), Telemetry::disabled())
}

fn by_class(class: &str) -> Mutation {
    catalog().into_iter().find(|m| m.class == class).unwrap_or_else(|| panic!("{class} missing"))
}

/// Everything in an FPS failure string after "N commands" is wall time;
/// strip it so verdicts can be compared byte-for-byte across runs.
fn strip_wall(detail: &str) -> String {
    match detail.rsplit_once(" commands, ") {
        Some((head, _)) => format!("{head} commands"),
        None => detail.to_string(),
    }
}

#[test]
fn catalog_spans_all_levels_with_unique_classes() {
    let muts = catalog();
    assert!(muts.len() >= 12, "taxonomy shrank to {} classes", muts.len());
    let mut names: Vec<&str> = muts.iter().map(|m| m.class).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), muts.len(), "duplicate class names");
    for level in Level::ALL {
        assert!(muts.iter().any(|m| m.level == level), "no mutation covers level {level}");
        assert!(
            muts.iter().any(|m| m.level == level && m.quick),
            "quick sample misses level {level}"
        );
    }
    // Controls are distinguishable by prefix (the harness's contract).
    for c in controls() {
        assert!(c.class.starts_with("clean-"), "control {} lacks clean- prefix", c.class);
    }
}

#[test]
fn representative_mutants_die_at_their_designed_stage() {
    let p = pipeline();
    // One cheap representative per software stage plus the wire-level
    // check (the expensive classes are mutatest/CI territory).
    let expect = [
        ("crypto-mont-carry-drop", StageKind::Lockstep),
        ("cc-branch-polarity", StageKind::Equivalence),
        ("cc-dead-store", StageKind::Equivalence),
        ("cc-secret-latency", StageKind::CtCheck),
        ("cc-callee-saved-clobber", StageKind::CtCheck),
        // The resource-bound classes: one corrupts the frame discipline
        // (a real bug FPS would also catch, but the static analysis
        // refuses first), one is a comment-only annotation drop that NO
        // dynamic stage can see — the bound stage is its sole defense.
        ("codegen-stack-frame-underalloc", StageKind::Bound),
        ("littlec-loop-bound-drop", StageKind::Bound),
        ("cc-syssw-reg-clobber", StageKind::Fps),
        ("soc-tx-double-commit", StageKind::Fps),
        ("emu-response-desync", StageKind::Fps),
        // Contract-violation faults are invisible to FPS's dual-world
        // comparison (timing shifts identically in both worlds, or
        // nothing shifts at all); the battery must take the kill.
        ("core-contract-latency-understated", StageKind::Contract),
        ("core-contract-hidden-operand-dep", StageKind::Contract),
        ("core-contract-taint-silent", StageKind::Contract),
    ];
    for (class, stage) in expect {
        let r = run_mutant(&p, &by_class(class), 1);
        assert_eq!(
            r.killed_by,
            Some(stage),
            "{class}: expected kill at {stage}, got {} ({})",
            r.verdict(),
            r.detail
        );
    }
}

#[test]
fn clean_token_control_survives_all_stages() {
    let p = pipeline();
    let control = controls().into_iter().find(|c| c.class == "clean-token").unwrap();
    let r = run_mutant(&p, &control, 2);
    assert!(r.killed_by.is_none(), "clean control killed: {} ({})", r.verdict(), r.detail);
}

/// Adversary mutants must produce *byte-identical* verdicts whatever
/// the stage graph's width — same killing stage, same error (modulo
/// wall time).
#[test]
fn fps_killed_mutants_are_thread_invariant() {
    let p = pipeline();
    for class in [
        "cc-syssw-reg-clobber",
        "isa-load-sign-extend",
        "soc-journal-write-drop",
        "emu-response-desync",
    ] {
        let m = by_class(class);
        let seq = run_mutant(&p, &m, 1);
        let par = run_mutant(&p, &m, 8);
        assert_eq!(seq.killed_by, Some(StageKind::Fps), "{class} seq: {}", seq.detail);
        assert_eq!(seq.killed_by, par.killed_by, "{class}: stage differs across thread budgets");
        assert_eq!(
            strip_wall(&seq.detail),
            strip_wall(&par.detail),
            "{class}: verdicts differ between 1 and 8 threads"
        );
    }
}
