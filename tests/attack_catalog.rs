//! The §7.2 attack catalog: one seeded bug per class, each caught by
//! the verification layer the paper says catches it.
//!
//! | Bug class                          | Caught by        | Test |
//! |------------------------------------|------------------|------|
//! | Software logic bug                 | Starling lockstep| `logic_bug_*` |
//! | Buffer overflow                    | Low\* memory safety | `buffer_overflow_*` |
//! | Software-level leakage (error path)| Starling lockstep| `error_leak_*` |
//! | Timing leak (branch on secret)     | Knox2 FPS        | `secret_branch_*` (and knox2_hasher.rs) |
//! | Compiler-introduced timing leak    | Knox2 FPS        | `compiler_timing_*` |
//! | HW variable-latency on secret      | Knox2 FPS/taint  | `variable_latency_*` |
//! | Stack overflow                     | Knox2 (bounded stack) | `stack_overflow_*` |
//! | I/O bug in system software         | Knox2 FPS (spec binding) | `io_encoding_*` |
//! | Pipeline hazard in CPU             | Knox2 sync       | knox2_sync.rs |
//!
//! The tests use a deliberately tiny "token counter" HSM so that each
//! SoC run takes only thousands of cycles.

use parfait::lockstep::check_lockstep_simulation;
use parfait_knox2::{FpsError, HostOp};

mod common;

use common::{
    cmd, standard_script, token_fps, token_spec, TokenCodec, TokenFps, CMD, RESP, STATE, TOKEN_LC,
};

/// Run the FPS check for the given app source (and optional syssw/asm
/// tampering) against the CORRECT app's assembly spec.
fn run_fps_with(
    app_source: &str,
    syssw_src: Option<&str>,
    patch: impl FnOnce(String) -> String,
    script: &[HostOp],
) -> Result<parfait_knox2::FpsReport, FpsError> {
    TokenFps::build(app_source, syssw_src, None, patch).run(script).result.map_err(|f| f.error)
}

// --- baseline -----------------------------------------------------------

#[test]
fn clean_token_hsm_passes_everything() {
    // Starling lockstep.
    let spec = token_spec();
    let program = parfait_littlec::frontend(TOKEN_LC).unwrap();
    let interp = parfait_starling::machines::InterpMachine::new(&program, RESP);
    // Physically, commands are always exactly CMD bytes (the system
    // software reads fixed-size buffers), so lockstep inputs are too.
    let inputs: Vec<Vec<u8>> =
        vec![cmd(1, 5), cmd(2, 3), cmd(3, 9), cmd(9, 1), cmd(0, 0), vec![0xFF; CMD]];
    check_lockstep_simulation(&TokenCodec, &spec, &interp, &[(0, 0), (0xAA55, 3)], &inputs)
        .unwrap();
    // Knox2 FPS: the standard script, the empty and idle-only scripts,
    // and a command split across two Garbage ops between commands (the
    // framing is mid-command at an op boundary, and the completed
    // garbage command's response must still bind to the spec).
    let garbage = cmd(0x77, 0xABCD);
    let split = vec![
        HostOp::Command(cmd(3, 5)),
        HostOp::Idle(500),
        HostOp::Garbage(garbage[..2].to_vec()),
        HostOp::Garbage(garbage[2..].to_vec()),
        HostOp::Command(cmd(2, 1)),
        HostOp::Idle(1),
        HostOp::Command(cmd(3, 0)),
    ];
    let scripts = [
        ("standard", standard_script(), 4, 4),
        ("empty", vec![], 0, 0),
        ("idle-only", vec![HostOp::Idle(2_000)], 0, 0),
        ("split-garbage", split, 3, 4),
    ];
    for (label, script, commands, spec_queries) in scripts {
        let report = token_fps().run(&script).result.unwrap_or_else(|f| panic!("{label}: {f}"));
        assert_eq!(report.commands, commands, "{label}: commands");
        assert_eq!(report.spec_queries, spec_queries, "{label}: spec queries");
    }
}

// --- software logic bug (Starling) ---------------------------------------

#[test]
fn logic_bug_caught_by_starling() {
    // Counter bumps by arg+1.
    let buggy = TOKEN_LC.replace("ld32(state + 4) + arg", "ld32(state + 4) + arg + 1");
    assert_ne!(buggy, TOKEN_LC);
    let program = parfait_littlec::frontend(&buggy).unwrap();
    let interp = parfait_starling::machines::InterpMachine::new(&program, RESP);
    let err =
        check_lockstep_simulation(&TokenCodec, &token_spec(), &interp, &[(0, 0)], &[cmd(2, 3)])
            .unwrap_err();
    assert!(err.obligation.contains("Some"), "{err}");
}

// --- buffer overflow (Low* memory safety) --------------------------------

#[test]
fn buffer_overflow_caught_at_lowstar_level() {
    // Off-by-one response write.
    let buggy = TOKEN_LC.replace(
        "for (u32 i = 0; i < 5; i = i + 1) { resp[i] = 0; }",
        "for (u32 i = 0; i < 6; i = i + 1) { resp[i] = 0; }",
    );
    assert_ne!(buggy, TOKEN_LC);
    let program = parfait_littlec::frontend(&buggy).unwrap();
    let interp = parfait_littlec::interp::Interp::new(&program);
    let err = interp.step(&[0u8; STATE], &cmd(2, 1), RESP).unwrap_err();
    assert!(err.msg.contains("out-of-bounds"), "{err}");
}

// --- error-path leakage (Starling) ----------------------------------------

#[test]
fn error_leak_caught_by_starling() {
    // Invalid commands reveal the secret.
    let buggy = TOKEN_LC.replace("resp[0] = 0xff;", "resp[0] = 0xff; st32(resp + 1, ld32(state));");
    assert_ne!(buggy, TOKEN_LC);
    let program = parfait_littlec::frontend(&buggy).unwrap();
    let interp = parfait_starling::machines::InterpMachine::new(&program, RESP);
    let err = check_lockstep_simulation(
        &TokenCodec,
        &token_spec(),
        &interp,
        &[(0x5EC7E7, 0)],
        &[cmd(0xEE, 0)],
    )
    .unwrap_err();
    assert!(err.obligation.contains("None"), "{err}");
}

// --- secret-dependent branch (Knox2) --------------------------------------

#[test]
fn secret_branch_caught_by_knox2() {
    let buggy = TOKEN_LC.replace(
        "u32 secret = ld32(state);",
        "u32 secret = ld32(state); if (secret > 1000) { u32 w = 0; for (u32 i = 0; i < 50; i = i + 1) { w = w + i; } st32(resp + 1, w); }",
    );
    assert_ne!(buggy, TOKEN_LC);
    let err = run_fps_with(&buggy, None, |a| a, &standard_script()).unwrap_err();
    match err {
        FpsError::TraceDivergence { .. } | FpsError::Leak { .. } => {}
        other => panic!("expected a leak symptom, got {other}"),
    }
}

// --- compiler-introduced timing bug (Knox2) -------------------------------

#[test]
fn compiler_timing_bug_caught_by_knox2() {
    // Tamper with the generated assembly (below the littlec level): at
    // handle entry, branch on the first state byte.
    let patch = |asm: String| {
        asm.replacen("handle:", "handle:\n    lbu t0, 0(a0)\n    beqz t0, 12\n    nop\n    nop", 1)
    };
    let err = run_fps_with(TOKEN_LC, None, patch, &standard_script()).unwrap_err();
    match err {
        FpsError::TraceDivergence { .. } | FpsError::Leak { .. } => {}
        other => panic!("expected a timing divergence, got {other}"),
    }
}

// --- hardware variable-latency instruction (Knox2/taint) -------------------

#[test]
fn variable_latency_div_on_secret_caught() {
    // `secret / (arg|1)`: the divider's latency depends on the dividend
    // (the secret) on both cores.
    let buggy = TOKEN_LC.replace(
        "st32(resp + 1, (secret * 2654435761 + c) ^ arg);",
        "st32(resp + 1, (secret / (arg | 1)) + c);",
    );
    assert_ne!(buggy, TOKEN_LC);
    // Spec must match the buggy source (the bug here is *hardware*
    // latency, not functional behaviour).
    let fps = TokenFps::build(&buggy, None, Some(&buggy), |a| a);
    let err = fps.run(&[HostOp::Command(cmd(3, 5))]).result.map_err(|f| f.error).unwrap_err();
    match err {
        FpsError::TraceDivergence { .. } | FpsError::Leak { .. } => {}
        other => panic!("expected latency divergence, got {other}"),
    }
}

// --- stack overflow (Knox2: bounded stack) ---------------------------------

#[test]
fn stack_overflow_caught_by_knox2() {
    // Deep recursion with big frames: fine at the assembly level
    // (abstract unbounded stack), fatal on the SoC (bounded RAM).
    let buggy = TOKEN_LC
        .replace("u32 secret = ld32(state);", "u32 secret = ld32(state) + burn(400);")
        + "
    u32 burn(u32 n) {
        u32 big[256];
        big[0] = n;
        if (n == 0) { return 0; }
        return big[0] + burn(n - 1);
    }
    ";
    let err = run_fps_with(&buggy, None, |a| a, &[HostOp::Command(cmd(3, 1))]).unwrap_err();
    match err {
        FpsError::Fault { .. } | FpsError::TraceDivergence { .. } | FpsError::Timeout { .. } => {}
        other => panic!("expected a fault, got {other}"),
    }
}

// --- I/O bug in system software (Knox2 spec binding) -----------------------

#[test]
fn io_encoding_bug_caught_by_knox2() {
    // write_response sends the bytes in reverse order. Both circuit
    // instances share the bug, so their traces agree — the spec-binding
    // check is what catches it.
    let buggy_syssw = parfait_hsms::syssw::syssw_source(STATE, CMD, RESP).replace(
        "void write_response(u8* resp) {\n    for (u32 i = 0; i < 5; i = i + 1) {\n        ss_write_byte(resp[i]);",
        "void write_response(u8* resp) {\n    for (u32 i = 0; i < 5; i = i + 1) {\n        ss_write_byte(resp[4 - i]);",
    );
    assert!(buggy_syssw.contains("resp[4 - i]"), "injection must apply");
    let err = run_fps_with(TOKEN_LC, Some(&buggy_syssw), |a| a, &standard_script()).unwrap_err();
    match err {
        FpsError::ResponseMismatch { .. } => {}
        other => panic!("expected a response mismatch, got {other}"),
    }
}
