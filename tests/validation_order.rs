//! Translation validation runs interp and IR once per case and asm at
//! every opt level. A check it skips at a later level already passed at
//! the first, so a failing equivalence stage must report exactly what a
//! level-by-level validation (every level re-running all three) reports:
//! the same first failing comparison, under the same `"{level}: "`.
//! The level-by-level validator is kept below as the oracle, with the
//! error texts pinned literally.

#[path = "../crates/littlec/tests/oracle/mod.rs"]
mod oracle;

mod common;

use std::sync::Arc;

use parfait_littlec::codegen::OptLevel;
use parfait_littlec::ir::lower;
use parfait_littlec::ireval::IrEval;
use parfait_littlec::validate::asm_machine_patched;
use parfait_pipeline::{AppPipeline, CertCache, Pipeline, Tamper};
use parfait_telemetry::Telemetry;

use common::{token_app_pipeline, TOKEN_LC};
use oracle::OracleInterp;

type Patch = Arc<dyn Fn(String) -> String + Send + Sync>;

/// The equivalence stage's validation as every level once ran it.
fn level_by_level(app: &AppPipeline, patch: Option<&Patch>) -> Result<(), String> {
    let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
    let cases = Pipeline::equivalence_cases(app);
    let response = app.sizes.response;
    for level in &app.opt_levels {
        let fail = |e: String| format!("{level}: {e}");
        let interp = OracleInterp::new(&program);
        let ir = lower(&program).map_err(|e| fail(e.to_string()))?;
        let ireval = IrEval::new(&ir);
        let (s, c) = (cases[0].0.len(), cases[0].1.len());
        let asm = asm_machine_patched(&program, *level, s, c, response, |a| match patch {
            Some(p) => p(a),
            None => a,
        })
        .map_err(|e| fail(e.to_string()))?;
        for (state, command) in &cases {
            let a = interp
                .step(state, command, response)
                .map_err(|e| fail(format!("execution error: interp: {e}")))?;
            let b = ireval
                .step(state, command, response)
                .map_err(|e| fail(format!("execution error: ireval: {e}")))?;
            if a != b {
                return Err(fail(format!(
                    "translation validation failed (interp (Low*) vs ireval (C)): \
                     state={state:02x?} cmd={command:02x?}: {:02x?}/{:02x?} vs {:02x?}/{:02x?}",
                    a.0, a.1, b.0, b.1
                )));
            }
            let c =
                asm.step(state, command).map_err(|e| fail(format!("execution error: asm: {e}")))?;
            if a != c {
                return Err(fail(format!(
                    "translation validation failed (ireval (C) vs asm): \
                     state={state:02x?} cmd={command:02x?}: {:02x?}/{:02x?} vs {:02x?}/{:02x?}",
                    a.0, a.1, c.0, c.1
                )));
            }
        }
    }
    Ok(())
}

fn equivalence_error(app: &AppPipeline) -> String {
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    pipeline.equivalence_stage(app, OptLevel::O2).expect_err("equivalence must fail")
}

#[test]
fn a_patch_that_breaks_only_o1_fails_where_it_did() {
    let mut app = token_app_pipeline("order-o1-only", TOKEN_LC.to_string());
    assert_eq!(app.opt_levels, [OptLevel::O0, OptLevel::O1, OptLevel::O2]);
    let program = parfait_littlec::frontend(TOKEN_LC).unwrap();
    let o1 = parfait_littlec::compile(&program, OptLevel::O1).unwrap();
    assert_ne!(o1, parfait_littlec::compile(&program, OptLevel::O2).unwrap());
    // Shift the response pointer, at -O1 only.
    let patch: Patch = Arc::new(move |asm: String| {
        if asm == o1 {
            asm.replacen("handle:", "handle:\n    addi a2, a2, 1", 1)
        } else {
            asm
        }
    });
    let mut tamper = Tamper::new("order-o1-only");
    tamper.patch_asm = Some(patch.clone());
    app = app.with_tamper(tamper);
    let want = level_by_level(&app, Some(&patch)).expect_err("the patch breaks -O1");
    assert!(want.starts_with("-O1: translation validation failed (ireval (C) vs asm)"), "{want}");
    assert_eq!(equivalence_error(&app), want);
}

#[test]
fn an_interp_ir_disagreement_is_still_reported_as_one() {
    // Sibling blocks reuse the interpreter's stack addresses, while the
    // IR gives every frame slot its own: a leaked stack address differs
    // between the two levels (the interpreter's is 0x7000_0000).
    let leaky = TOKEN_LC.replace(
        "u32 secret = ld32(state);",
        "u32 secret = ld32(state);
        if (1) { u32 a[4]; a[0] = 1; }
        u32 b[4];
        b[0] = 0;
        secret = secret + (((u32)b) & 0xFF);",
    );
    assert_ne!(leaky, TOKEN_LC);
    let app = token_app_pipeline("order-interp-ir", leaky);
    let want = level_by_level(&app, None).expect_err("interp and IR disagree");
    assert!(
        want.starts_with("-O0: translation validation failed (interp (Low*) vs ireval (C))"),
        "{want}"
    );
    assert_eq!(equivalence_error(&app), want);
}
