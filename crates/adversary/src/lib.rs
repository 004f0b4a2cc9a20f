//! parfait-adversary — cross-level mutation testing for the proof
//! pipeline.
//!
//! The pipeline's stages each claim to catch a family of bugs:
//! Starling lockstep catches functional divergence from the spec,
//! translation validation catches miscompilation, the constant-time
//! lint catches secret-dependent control flow (and, via CT-ABI,
//! callee-saved clobbers), the contract battery catches a core
//! breaking its declared leakage contract, the bound analysis catches
//! stack-discipline and loop-bound faults, and FPS catches everything
//! else below the assembly contract — encoder bugs, SoC peripheral
//! bugs, and defects in the verifier's own emulator template. Those claims are tested nowhere:
//! every checker in the repo is only ever run on *correct* inputs.
//!
//! This crate closes that loop. [`catalog`] enumerates classified
//! faults seeded at six implementation levels — crypto source, codegen
//! output, ROM instruction encoding, core datapath, SoC peripherals,
//! and the emulator itself — and [`runner`] drives each mutant through
//! the full staged pipeline, recording which stage kills it. The
//! resulting `(level × stage)` detection matrix is ratcheted in
//! `mutation_baseline.json` ([`baseline`]): a mutant surviving, or
//! dying at a different stage than recorded, fails CI.
//!
//! Mutants are content-addressed like any other app: a tampered app
//! folds its fingerprint into the below-source stage cache keys, so
//! mutant certificates never alias the clean ones, while the untouched
//! software stages of tamper-only mutants still share the clean
//! certificates (see `tests/pipeline_cache.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod catalog;
pub mod fixtures;
pub mod runner;

pub use baseline::{diff, Baseline, Diff, Violation};
pub use catalog::{catalog, controls, Level, Mutation};
pub use runner::{reports_to_json, run_catalog, run_mutant, Matrix, MutantReport};
