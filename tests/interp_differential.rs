//! The slot-resolved Low\* interpreter against the AST-walking oracle it
//! replaced, on the inputs verification feeds it: every production
//! app's lockstep grid and equivalence grid, and the §7.2 attack
//! catalog's token-HSM variants. Results and errors (message and line)
//! must be equal.

#[path = "../crates/littlec/tests/oracle/mod.rs"]
mod oracle;

mod common;

use parfait::lockstep::Codec;
use parfait_littlec::interp::Interp;
use parfait_littlec::Program;
use parfait_pipeline::{Pipeline, StdApp};

use common::{cmd, TokenCodec, RESP, TOKEN_LC};
use oracle::OracleInterp;

type Case = (Vec<u8>, Vec<u8>);

/// Both interpreters agree on every case; returns the errors seen.
fn agree(label: &str, program: &Program, cases: &[Case], response: usize) -> Vec<String> {
    let (new, old) = (Interp::new(program), OracleInterp::new(program));
    let mut errors = Vec::new();
    for (state, command) in cases {
        let got = new.step(state, command, response);
        assert_eq!(got, old.step(state, command, response), "{label}: {state:02x?} {command:02x?}");
        if let Err(e) = got {
            errors.push(e.to_string());
        }
    }
    errors
}

#[test]
fn production_lockstep_and_equivalence_inputs_agree() {
    for app in StdApp::ALL.map(StdApp::pipeline) {
        let program = parfait_littlec::frontend(&app.source).unwrap();
        assert!(!app.lockstep_cases.is_empty(), "{}", app.slug);
        let errors = agree(&app.slug, &program, &app.lockstep_cases, app.sizes.response);
        assert!(errors.is_empty(), "{}: {errors:?}", app.slug);
        let grid = Pipeline::equivalence_cases(&app);
        let errors = agree(&app.slug, &program, &grid, app.sizes.response);
        assert!(errors.is_empty(), "{}: {errors:?}", app.slug);
    }
}

#[test]
fn attack_catalog_variants_agree() {
    let variants = [
        ("clean", TOKEN_LC.to_string(), None),
        ("logic bug", TOKEN_LC.replace("ld32(state + 4) + arg", "ld32(state + 4) + arg + 1"), None),
        (
            "buffer overflow",
            TOKEN_LC.replace(
                "for (u32 i = 0; i < 5; i = i + 1) { resp[i] = 0; }",
                "for (u32 i = 0; i < 6; i = i + 1) { resp[i] = 0; }",
            ),
            Some("out-of-bounds access"),
        ),
        (
            "error leak",
            TOKEN_LC.replace("resp[0] = 0xff;", "resp[0] = 0xff; st32(resp + 1, ld32(state));"),
            None,
        ),
        (
            "secret branch",
            TOKEN_LC.replace(
                "u32 secret = ld32(state);",
                "u32 secret = ld32(state); if (secret > 1000) { u32 w = 0; for (u32 i = 0; i < 50; i = i + 1) { w = w + i; } st32(resp + 1, w); }",
            ),
            None,
        ),
        (
            "variable latency",
            TOKEN_LC.replace(
                "st32(resp + 1, (secret * 2654435761 + c) ^ arg);",
                "st32(resp + 1, (secret / (arg | 1)) + c);",
            ),
            None,
        ),
        (
            "stack overflow",
            TOKEN_LC
                .replace("u32 secret = ld32(state);", "u32 secret = ld32(state) + burn(400);")
                + "
            u32 burn(u32 n) {
                u32 big[256];
                big[0] = n;
                if (n == 0) { return 0; }
                return big[0] + burn(n - 1);
            }",
            Some("call depth exceeded"),
        ),
    ];
    let states = [(0, 0), (0xAA55, 3), (0x5EC7E7, 0), (0xDEAD_BEEF, 7)];
    let inputs = [
        cmd(1, 5),
        cmd(2, 3),
        cmd(3, 9),
        cmd(3, 1),
        cmd(9, 1),
        cmd(0, 0),
        cmd(0xEE, 0),
        vec![0xFF; 5],
    ];
    let cases: Vec<Case> = states
        .iter()
        .flat_map(|s| inputs.iter().map(|i| (TokenCodec.encode_state(s), i.clone())))
        .collect();
    for (label, source, fault) in variants {
        if label != "clean" {
            assert_ne!(source, TOKEN_LC, "{label}: the edit applies");
        }
        let program = parfait_littlec::frontend(&source).unwrap();
        let errors = agree(label, &program, &cases, RESP);
        match fault {
            None => assert!(errors.is_empty(), "{label}: {errors:?}"),
            Some(want) => {
                assert!(!errors.is_empty(), "{label}: the fault fires");
                assert!(errors.iter().all(|e| e.contains(want)), "{label}: {errors:?}");
            }
        }
    }
}
