//! parfait-lint — static secret-taint / constant-time analysis.
//!
//! Parfait's dynamic stages (lockstep, equivalence, FPS) prove
//! leakage-freedom end-to-end, but only report violations after an
//! expensive run. The leakage bugs they catch live in secret-dependent
//! *control flow* and *memory addressing*; this crate finds those
//! statically, in milliseconds, at two layers:
//!
//! * [`lint_ir`] — forward taint analysis over the littlec IR
//!   ([`parfait_littlec::ir`]), seeded from the handler's
//!   secret-state parameter, with fixpoint propagation across the CFG
//!   and through calls. This is the "App Impl \[C\]" layer.
//! * [`lint_asm`] — CFG recovery over the assembled RV32IM firmware
//!   ([`parfait_riscv::decode`]) plus abstract taint interpretation
//!   over registers and stack slots with the same rule set, so leaks
//!   *introduced by* `littlec::opt`/`regalloc` (spills, branch
//!   rewrites) are caught even when the IR is clean.
//!
//! Both layers enforce the same core rules:
//!
//! | rule id      | violation                                          |
//! |--------------|----------------------------------------------------|
//! | `CT-BRANCH`  | branch (or loop bound) on a secret-derived value   |
//! | `CT-MEM`     | load/store at a secret-dependent address           |
//! | `CT-LATENCY` | secret operand to a variable-latency op            |
//! | `CT-ABI`     | callee-saved register clobbered across the handler (asm layer only) |
//!
//! Which instruction classes count as `CT-LATENCY`/`CT-MEM` sinks is
//! not hard-coded: it is derived from the supported cores' declared
//! [`parfait_cores::LeakageContract`]s via [`latency_model`], so the
//! lint's applicability tracks the microarchitectures it protects.
//!
//! Findings carry a [`Diagnostic`] (rule id + source span), the layer,
//! and the taint path from seed to sink. [`lint_source`] runs both
//! layers over one littlec application and is what the pipeline's
//! `ctcheck` stage and the `lint` binary call.

#![forbid(unsafe_code)]

use std::fmt;

use parfait_littlec::codegen::OptLevel;
use parfait_littlec::diag::Diagnostic;
use parfait_littlec::LcError;
use parfait_telemetry::json::Json;
use parfait_telemetry::Telemetry;

mod asm_lint;
mod bound;
mod ir_lint;
mod latency_model;

pub use asm_lint::{lint_asm, lint_asm_dense};
pub use bound::{
    bound_asm, BoundError, BoundRegions, BoundReport, BOUND_RULESET_VERSION, HOST_POLL_ITERS,
    SERVER_ROUNDS,
};
pub use ir_lint::lint_ir;
pub use latency_model::{latency_model, latency_model_fingerprint, LatencyModel};

/// Version string of the rule set; part of the `ctcheck` stage's input
/// hash so a rule change invalidates cached certificates.
pub const RULESET_VERSION: &str = "ct-rules-v1";

/// The handler entry point every firmware exposes, with the Parfait
/// ABI: `handle(u8* state, u8* cmd, u8* resp)` where `state` is
/// secret, `cmd` is attacker-chosen (public), and `resp` is the
/// declassified-by-specification output buffer.
pub const HANDLER_ENTRY: &str = "handle";

/// Which analysis layer produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// littlec IR (the "App Impl \[C\]" level).
    Ir,
    /// Assembled RV32IM firmware (the "App Impl \[Asm\]" level).
    Asm,
}

impl Layer {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Ir => "ir",
            Layer::Asm => "asm",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The constant-time rule a finding violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Secret-dependent branch or loop bound.
    SecretBranch,
    /// Secret-indexed load or store.
    SecretIndex,
    /// Secret operand to a variable-latency operation (div/rem).
    SecretLatency,
    /// Callee-saved register (or `ra`/`sp`) clobbered across the
    /// handler: the firmware returns to the boot loop with ABI state
    /// the caller relies on silently corrupted.
    CalleeSaved,
}

impl RuleId {
    /// Stable rule id (diagnostic codes, baselines, JSON).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::SecretBranch => "CT-BRANCH",
            RuleId::SecretIndex => "CT-MEM",
            RuleId::SecretLatency => "CT-LATENCY",
            RuleId::CalleeSaved => "CT-ABI",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One constant-time violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Which layer caught it.
    pub layer: Layer,
    /// Rule id + span + message (the shared littlec diagnostic type).
    pub diagnostic: Diagnostic,
    /// The taint path, seed first, sink last.
    pub taint: Vec<String>,
}

impl Finding {
    /// Serialize for `lint --json` and the findings baseline.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::str(self.rule.id())),
            ("layer", Json::str(self.layer.as_str())),
            ("function", Json::str(&self.diagnostic.span.function)),
            ("line", Json::Int(self.diagnostic.span.line as i64)),
            ("message", Json::str(&self.diagnostic.message)),
            ("taint", Json::Arr(self.taint.iter().map(Json::str).collect())),
        ])
    }

    /// The stable identity used by the findings ratchet: everything
    /// except the free-text taint path.
    pub fn baseline_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.rule.id(),
            self.layer,
            self.diagnostic.span.function,
            self.diagnostic.span.line,
            self.diagnostic.message
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} layer)", self.diagnostic, self.layer)?;
        if !self.taint.is_empty() {
            write!(f, "\n    taint: {}", self.taint.join(" -> "))?;
        }
        Ok(())
    }
}

/// Why the analyzer could not produce a verdict (distinct from a
/// finding: an error means the program is outside the analyzable
/// fragment, not that it leaks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintError {
    /// The littlec front end or lowering rejected the source.
    Frontend(LcError),
    /// The generated assembly failed to assemble or decode.
    Asm(String),
    /// The program has no entry function with the expected name.
    NoEntry(String),
    /// A construct outside the analyzable fragment (indirect jump,
    /// recursion); documented incompleteness, reported loudly instead
    /// of analyzed unsoundly.
    Unsupported(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Frontend(e) => write!(f, "front end: {e}"),
            LintError::Asm(e) => write!(f, "assembly: {e}"),
            LintError::NoEntry(e) => write!(f, "no entry function `{e}`"),
            LintError::Unsupported(e) => write!(f, "outside the analyzable fragment: {e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<LcError> for LintError {
    fn from(e: LcError) -> LintError {
        LintError::Frontend(e)
    }
}

/// The result of linting one application at one optimization level.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// All findings, both layers, sorted and deduplicated.
    pub findings: Vec<Finding>,
    /// IR instructions analyzed (deterministic size stat).
    pub ir_insts: usize,
    /// Assembly instructions analyzed (deterministic size stat).
    pub asm_instrs: usize,
}

impl LintReport {
    /// Whether no rule fired at either layer.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The distinct rule ids fired at `layer`.
    pub fn rules_at(&self, layer: Layer) -> Vec<RuleId> {
        let mut rules: Vec<RuleId> =
            self.findings.iter().filter(|f| f.layer == layer).map(|f| f.rule).collect();
        rules.sort();
        rules.dedup();
        rules
    }
}

/// Lint one littlec application at both layers: taint analysis over
/// the lowered (unoptimized) IR, then abstract interpretation over the
/// firmware compiled at `opt` and assembled.
///
/// Emits `lint.ir` / `lint.asm` telemetry spans and a `lint.findings`
/// counter.
pub fn lint_source(source: &str, opt: OptLevel, tel: &Telemetry) -> Result<LintReport, LintError> {
    lint_source_with(source, opt, tel, |a| a)
}

/// [`lint_source`] with a hook applied to the compiled assembly text
/// before the asm layer analyzes it. Production callers pass the
/// identity; the `parfait-adversary` mutation harness (DESIGN.md §12)
/// seeds compiler-introduced leaks through it to prove the asm layer
/// catches what the IR layer cannot see.
pub fn lint_source_with(
    source: &str,
    opt: OptLevel,
    tel: &Telemetry,
    patch_asm: impl FnOnce(String) -> String,
) -> Result<LintReport, LintError> {
    let program = parfait_littlec::frontend(source)?;
    let ir = parfait_littlec::ir::lower(&program)?;
    let ir_findings = {
        let _span = tel.span("lint.ir");
        lint_ir(&ir, HANDLER_ENTRY)?
    };
    let ir_insts = ir.functions.iter().map(parfait_littlec::opt::inst_count).sum();
    let asm = patch_asm(parfait_littlec::compile(&program, opt)?);
    let prog = parfait_riscv::assemble(&asm)
        .map_err(|e| LintError::Asm(format!("generated assembly does not assemble: {e}")))?;
    let asm_findings = {
        let _span = tel.span("lint.asm");
        lint_asm(&prog, HANDLER_ENTRY)?
    };
    let asm_instrs = prog.text.len();
    let mut findings = ir_findings;
    findings.extend(asm_findings);
    findings.sort();
    findings.dedup();
    tel.count("lint.findings", findings.len() as u64);
    Ok(LintReport { findings, ir_insts, asm_instrs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_and_layers_are_stable() {
        assert_eq!(RuleId::SecretBranch.id(), "CT-BRANCH");
        assert_eq!(RuleId::SecretIndex.id(), "CT-MEM");
        assert_eq!(RuleId::SecretLatency.id(), "CT-LATENCY");
        assert_eq!(Layer::Ir.as_str(), "ir");
        assert_eq!(Layer::Asm.as_str(), "asm");
    }

    #[test]
    fn clean_handler_lints_clean_at_both_layers() {
        // A masked constant-time select: no branches, no secret
        // indices, no division.
        let src = "
            void handle(u8* state, u8* cmd, u8* resp) {
                u32 s = state[0];
                u32 c = cmd[0];
                u32 m = 0 - (c & 1);
                resp[0] = (u8)((s & m) | (c & ~m));
            }
        ";
        let report = lint_source(src, OptLevel::O2, &Telemetry::disabled()).expect("analyzable");
        assert!(report.is_clean(), "unexpected findings: {:#?}", report.findings);
        assert!(report.ir_insts > 0);
        assert!(report.asm_instrs > 0);
    }

    #[test]
    fn secret_branch_is_found_at_both_layers() {
        let src = "
            void handle(u8* state, u8* cmd, u8* resp) {
                if (state[0]) { resp[0] = 1; }
            }
        ";
        let report = lint_source(src, OptLevel::O2, &Telemetry::disabled()).expect("analyzable");
        assert_eq!(report.rules_at(Layer::Ir), vec![RuleId::SecretBranch]);
        assert_eq!(report.rules_at(Layer::Asm), vec![RuleId::SecretBranch]);
        let f = &report.findings[0];
        assert_eq!(f.diagnostic.code, "CT-BRANCH");
        assert!(!f.taint.is_empty());
    }
}
