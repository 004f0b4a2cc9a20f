//! Seeded-violation corpus for parfait-lint.
//!
//! Each case is a small handler with one deliberate constant-time
//! violation; the test asserts the analyzer fires *exactly* the
//! expected rule at the expected layer(s). The asm-only cases patch a
//! leak into the assembly of a clean program, modeling a bug
//! introduced below the IR (where only [`parfait_analyzer::lint_asm`]
//! can see it). Finally, the production firmwares must lint clean at
//! both layers — the analyzer's false-positive budget on real code is
//! zero.

use parfait_analyzer::{lint_asm, lint_source, Layer, LintReport, RuleId};
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::apps::StdApp;
use parfait_telemetry::Telemetry;

fn lint(src: &str, opt: OptLevel) -> LintReport {
    lint_source(src, opt, &Telemetry::disabled()).expect("corpus case must be analyzable")
}

/// Assert the report fires exactly `expect` at the IR layer and
/// exactly `expect` at the asm layer.
fn assert_rules(report: &LintReport, expect: RuleId) {
    assert_eq!(report.rules_at(Layer::Ir), vec![expect], "IR layer: {:#?}", report.findings);
    assert_eq!(report.rules_at(Layer::Asm), vec![expect], "asm layer: {:#?}", report.findings);
}

#[test]
fn case_secret_branch() {
    for opt in [OptLevel::O0, OptLevel::O2] {
        let r = lint(
            "void handle(u8* state, u8* cmd, u8* resp) {
                if (state[0]) { resp[0] = 1; } else { resp[0] = 2; }
            }",
            opt,
        );
        assert_rules(&r, RuleId::SecretBranch);
    }
}

#[test]
fn case_secret_table_lookup() {
    let r = lint(
        "const u8 SBOX[16] = {9, 4, 10, 11, 13, 1, 8, 5, 6, 2, 0, 3, 12, 14, 15, 7};
        void handle(u8* state, u8* cmd, u8* resp) {
            resp[0] = SBOX[state[0] & 15];
        }",
        OptLevel::O2,
    );
    assert_rules(&r, RuleId::SecretIndex);
}

#[test]
fn case_early_exit_compare() {
    // The classic memcmp bug: return at the first mismatching byte.
    // Both the mismatch branch and the loop's data-dependent exit are
    // secret-dependent control flow.
    let r = lint(
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 i = 0;
            u32 ok = 1;
            while (i < 16) {
                if (state[i] != cmd[i]) { ok = 0; break; }
                i = i + 1;
            }
            resp[0] = (u8)ok;
        }",
        OptLevel::O2,
    );
    assert_rules(&r, RuleId::SecretBranch);
}

#[test]
fn case_secret_loop_bound() {
    let r = lint(
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 n = state[0] & 31;
            u32 acc = 0;
            u32 i = 0;
            while (i < n) { acc = acc + cmd[i]; i = i + 1; }
            resp[0] = (u8)acc;
        }",
        OptLevel::O2,
    );
    assert_rules(&r, RuleId::SecretBranch);
}

#[test]
fn case_division_by_secret() {
    let r = lint(
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 d = state[0] | 1;
            resp[0] = (u8)(cmd[0] / d);
        }",
        OptLevel::O2,
    );
    assert_rules(&r, RuleId::SecretLatency);
}

#[test]
fn case_remainder_by_secret() {
    let r = lint(
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 m = state[0] | 1;
            resp[0] = (u8)(cmd[0] % m);
        }",
        OptLevel::O2,
    );
    assert_rules(&r, RuleId::SecretLatency);
}

#[test]
fn case_secret_store_index() {
    let r = lint(
        "static u8 scratch[16];
        void handle(u8* state, u8* cmd, u8* resp) {
            scratch[state[0] & 15] = cmd[0];
            resp[0] = scratch[0];
        }",
        OptLevel::O2,
    );
    assert_rules(&r, RuleId::SecretIndex);
}

/// A clean program used as the substrate for the asm-patching cases.
const CLEAN_SRC: &str = "void handle(u8* state, u8* cmd, u8* resp) {
    u32 s = state[0];
    u32 m = 0 - (cmd[0] & 1);
    resp[0] = (u8)(s & m);
}";

/// Compile `CLEAN_SRC`, then insert `patch` right after the `handle:`
/// label — a leak introduced below the IR.
fn patched_asm_report(patch: &str) -> Vec<parfait_analyzer::Finding> {
    let program = parfait_littlec::frontend(CLEAN_SRC).unwrap();
    // The IR layer sees nothing wrong with the clean source.
    let ir = parfait_littlec::ir::lower(&program).unwrap();
    assert!(parfait_analyzer::lint_ir(&ir, "handle").unwrap().is_empty());
    let asm = parfait_littlec::compile(&program, OptLevel::O2).unwrap();
    assert!(asm.contains("handle:"), "expected a handle: label in:\n{asm}");
    let patched = asm.replacen("handle:", &format!("handle:\n{patch}"), 1);
    let prog = parfait_riscv::assemble(&patched).expect("patched assembly must assemble");
    lint_asm(&prog, "handle").unwrap()
}

#[test]
fn case_asm_only_secret_branch() {
    // A compiler bug model: a branch on a secret byte spliced into the
    // entry, converging immediately so the rest of the code is intact.
    let findings = patched_asm_report("    lbu t0, 0(a0)\n    bne t0, x0, .Lct_patch\n.Lct_patch:");
    let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![RuleId::SecretBranch], "{findings:#?}");
    assert!(findings[0].diagnostic.message.contains("bne"), "{findings:#?}");
}

#[test]
fn case_asm_only_secret_indexed_load() {
    // A secret byte used as an index into the public command buffer.
    let findings = patched_asm_report("    lbu t0, 0(a0)\n    add t0, a1, t0\n    lbu t1, 0(t0)");
    let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![RuleId::SecretIndex], "{findings:#?}");
}

#[test]
fn case_asm_only_secret_shift_amount() {
    // PicoRV32's serial shifter makes the shift *amount* a latency
    // operand (its contract declares `shift: operand(shift-chunks)`),
    // so a secret-derived amount is a CT-LATENCY sink — a rule the
    // lint only has because it derives applicability from the cores'
    // contracts rather than a baked-in div/rem table.
    let findings = patched_asm_report("    lbu t0, 0(a0)\n    li t1, 1\n    sll t1, t1, t0");
    let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![RuleId::SecretLatency], "{findings:#?}");
    assert!(findings[0].diagnostic.message.contains("shift amount"), "{findings:#?}");
}

#[test]
fn case_negative_control_secret_shifted_by_immediate() {
    // The shifted *value* being secret is fine on every supported
    // core: latency tracks the amount, and an immediate amount is
    // public by construction.
    let findings = patched_asm_report("    lbu t0, 0(a0)\n    slli t0, t0, 3\n    sll t0, t0, x0");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn case_asm_only_callee_saved_clobber() {
    // The pure ABI fault that is invisible to every dynamic stage on
    // an output-equivalent workload: an s-register grabbed as scratch
    // without a save/restore.
    let findings = patched_asm_report("    li s3, 42");
    let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![RuleId::CalleeSaved], "{findings:#?}");
    assert!(findings[0].diagnostic.message.contains("`s3`"), "{findings:#?}");
}

/// The contract-derived applicability table must coincide with the
/// historical baked-in one (div/rem variable-latency; loads and stores
/// address-traced) everywhere the old lint had an opinion — that, plus
/// the corpus and production cases in this file keeping their exact
/// verdicts, is the lint-under-contract ≡ lint-before argument. The
/// one extension is Shift, which the old table missed and Pico's
/// serial shifter makes real.
#[test]
fn contract_model_matches_the_historical_rule_table() {
    use parfait_cores::InstrClass;
    let m = parfait_analyzer::latency_model();
    assert!(m.variable_latency(InstrClass::Div));
    assert!(m.variable_latency(InstrClass::Shift));
    assert!(m.addr_trace(InstrClass::Load));
    assert!(m.addr_trace(InstrClass::Store));
    for class in [InstrClass::Alu, InstrClass::Mul, InstrClass::Branch, InstrClass::Jump] {
        assert!(!m.variable_latency(class), "{class} must not be a latency sink");
        assert!(!m.addr_trace(class), "{class} must not be an address sink");
    }
}

#[test]
fn case_negative_control_masked_select() {
    for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        let r = lint(CLEAN_SRC, opt);
        assert!(r.is_clean(), "{opt:?}: {:#?}", r.findings);
    }
}

/// The sparse asm analyzer (cross-pass memoized summaries, the
/// production default) must produce findings byte-identical to the
/// dense oracle that recomputes every function on every pass — over
/// the whole seeded-violation corpus, clean controls included.
#[test]
fn sparse_asm_lint_matches_dense_oracle_on_corpus() {
    let corpus: &[&str] = &[
        "void handle(u8* state, u8* cmd, u8* resp) {
            if (state[0]) { resp[0] = 1; } else { resp[0] = 2; }
        }",
        "const u8 SBOX[16] = {9, 4, 10, 11, 13, 1, 8, 5, 6, 2, 0, 3, 12, 14, 15, 7};
        void handle(u8* state, u8* cmd, u8* resp) {
            resp[0] = SBOX[state[0] & 15];
        }",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 i = 0;
            u32 ok = 1;
            while (i < 16) {
                if (state[i] != cmd[i]) { ok = 0; break; }
                i = i + 1;
            }
            resp[0] = (u8)ok;
        }",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 d = state[0] | 1;
            resp[0] = (u8)(cmd[0] / d);
        }",
        "static u8 scratch[16];
        void handle(u8* state, u8* cmd, u8* resp) {
            scratch[state[0] & 15] = cmd[0];
            resp[0] = scratch[0];
        }",
        CLEAN_SRC,
    ];
    for (i, src) in corpus.iter().enumerate() {
        for opt in [OptLevel::O0, OptLevel::O2] {
            let program = parfait_littlec::frontend(src).unwrap();
            let asm = parfait_littlec::compile(&program, opt).unwrap();
            let prog = parfait_riscv::assemble(&asm).unwrap();
            let dense = parfait_analyzer::lint_asm_dense(&prog, "handle").unwrap();
            let sparse = lint_asm(&prog, "handle").unwrap();
            assert_eq!(sparse, dense, "case {i} {opt:?}: sparse != dense");
        }
    }
}

/// The production firmwares are constant-time by construction (FPS
/// verifies this dynamically); the static analyzer must agree with
/// zero findings at both layers.
#[test]
fn production_hasher_lints_clean() {
    for opt in [OptLevel::O0, OptLevel::O2] {
        let r = lint(&StdApp::Hasher.source(), opt);
        assert!(r.is_clean(), "hasher {opt:?}: {:#?}", r.findings);
    }
}

#[test]
fn production_totp_lints_clean() {
    for opt in [OptLevel::O0, OptLevel::O2] {
        let r = lint(&StdApp::Totp.source(), opt);
        assert!(r.is_clean(), "totp {opt:?}: {:#?}", r.findings);
    }
}

#[test]
fn production_ecdsa_lints_clean() {
    // O2 only: the -O0 and -O1 images lint clean too, but take tens of
    // seconds each, so `scripts/ci.sh` gates them through the `lint`
    // binary instead of the test suite.
    let r = lint(&StdApp::Ecdsa.source(), OptLevel::O2);
    assert!(r.is_clean(), "ecdsa O2: {:#?}", r.findings);
    assert!(r.ir_insts > 0 && r.asm_instrs > 0);
}
