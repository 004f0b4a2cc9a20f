//! The asm-level whole-command machine against the machine it replaced
//! (`crates/riscv/tests/oracle`) on the inputs verification feeds it:
//! every production app's lockstep and equivalence grids, at each opt
//! level the app is validated at. The run's result or exact error, the
//! registers, pc, instruction count and the state and response buffers
//! must be equal.

#[path = "../crates/riscv/tests/oracle/mod.rs"]
mod oracle;

use parfait_littlec::validate::asm_machine;
use parfait_pipeline::{Pipeline, StdApp};

use oracle::oracle_prepare;

#[test]
fn production_lockstep_and_grid_cases_match_the_oracle() {
    let mut checked = 0;
    for app in StdApp::ALL.map(StdApp::pipeline) {
        let program = parfait_littlec::frontend(&app.source).unwrap();
        let mut cases = app.lockstep_cases.clone();
        cases.extend(Pipeline::equivalence_cases(&app));
        let s = app.sizes;
        let sizes = (s.state, s.command, s.response);
        for &level in &app.opt_levels {
            let sm = asm_machine(&program, level, s.state, s.command, s.response).unwrap();
            for (state, command) in &cases {
                let what = format!("{}/{level} {state:02x?} {command:02x?}", app.slug);
                let (mut new, state_at, _, response_at) = sm.prepare(state, command);
                let (mut old, old_state_at, _, old_response_at) =
                    oracle_prepare(sm.program(), sizes, state, command);
                assert_eq!((state_at, response_at), (old_state_at, old_response_at), "{what}");
                assert_eq!(new.run(sm.fuel), old.run(sm.fuel), "{what}: run");
                assert_eq!(new.regs, old.regs, "{what}: registers");
                assert_eq!((new.pc, new.instret), (old.pc, old.instret), "{what}: pc, instret");
                for (at, len) in [(state_at, s.state), (response_at, s.response)] {
                    assert_eq!(new.loadbytes(at, len), old.mem.load_bytes(at, len), "{what}");
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 200, "{checked} cases");
}
