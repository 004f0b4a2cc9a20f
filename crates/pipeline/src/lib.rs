//! parfait-pipeline — the unified, incremental proof pipeline.
//!
//! The paper's central structural claim is that IPR is *transitive*
//! (§3): the end-to-end statement "the SoC leaks nothing beyond the
//! application specification" decomposes into independent per-level
//! obligations. This crate makes that decomposition operational. The
//! whole proof is modeled as seven typed stages, declared once in the
//! [`graph`] stage table in compose-chain order
//!
//! ```text
//! SpecCheck → Lockstep (Starling) → Equivalence (littlec) → CtCheck (lint)
//!   → Bound (WCET/stack) → FPS (Knox2) → Contract (core battery)
//! ```
//!
//! each of which hashes its complete input set into a content address
//! ([`artifact`]), consults an on-disk certificate cache ([`cache`],
//! rooted at `PARFAIT_CACHE_DIR`), and on a miss runs the underlying
//! checker and emits a serializable [`certificate::StageCertificate`].
//! The seven certificates of an (app × cpu × opt) cell chain — via the
//! same adjacency condition as `parfait::transitive` — into one
//! [`certificate::ComposedCertificate`] for the cell. Every caller runs
//! cells through one planner and scheduler ([`graph::run_cells`]).
//!
//! The payoff is incrementality: re-verifying an unchanged app is a
//! near-instant cache hit, and a one-line change to an app's littlec
//! source re-runs only the stages downstream of the source (lockstep,
//! equivalence, FPS) while the spec-level census stays cached. A stale
//! hit would require a SHA-256 collision (see DESIGN.md §9).

#![forbid(unsafe_code)]

pub mod apps;
pub mod artifact;
pub mod cache;
pub mod certificate;
pub mod graph;
pub mod pipeline;
pub mod serve;

pub use apps::{app_from_codec, AppPipeline, SpecRow, SpecTrace, StdApp, Tamper};
pub use artifact::{ArtifactHasher, ArtifactId};
pub use cache::CertCache;
pub use certificate::{
    compose, ComposeError, ComposedCertificate, StageCertificate, StageKind, SCHEMA,
};
pub use graph::{run_cells, Cell, StageSet};
pub use pipeline::{CellReport, Pipeline, StageOutcome};
pub use serve::ServeCore;
