//! The Starling verification driver.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use parfait::lockstep::{
    check_codec_inverse, check_lockstep_simulation, Codec, LockstepDriver, LockstepEmulator,
};
use parfait::world::{check_ipr, Op};
use parfait::StateMachine;
use parfait_littlec::codegen::OptLevel;
use parfait_littlec::ir::lower;
use parfait_littlec::validate::{asm_machine, LevelRuns};
use parfait_riscv::model::AsmStateMachine;
use parfait_telemetry::Telemetry;

use crate::machines::{AsmMachine, InterpMachine, IrMachine};

/// Configuration for a Starling verification run.
pub struct StarlingConfig {
    /// Buffer sizes of the application.
    pub state_size: usize,
    /// Command buffer size.
    pub command_size: usize,
    /// Response buffer size.
    pub response_size: usize,
    /// How many adversarial (mutated/garbage) inputs to generate.
    pub adversarial_inputs: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Optimization levels to validate the compiler pipeline at.
    pub opt_levels: Vec<OptLevel>,
}

impl Default for StarlingConfig {
    fn default() -> Self {
        StarlingConfig {
            state_size: 0,
            command_size: 0,
            response_size: 0,
            adversarial_inputs: 16,
            seed: 0x5747_4C31, // "STGL1"
            opt_levels: vec![OptLevel::O0, OptLevel::O1, OptLevel::O2],
        }
    }
}

/// Summary of a successful verification run (effort numbers for
/// Table 3).
#[derive(Clone, Debug, Default)]
pub struct StarlingReport {
    /// Lockstep (state, input) pairs checked.
    pub lockstep_cases: usize,
    /// Translation-validation comparisons: two per (opt level, state,
    /// input). It counted executions when every level re-ran interp and
    /// IR; they now run once per (state, input), but the count is kept
    /// so the lockstep certificate, which carries it, stays the same.
    pub validation_cases: usize,
    /// IPR world-equivalence operations checked.
    pub ipr_operations: usize,
    /// Whole-command runs per level (obligations 2–4; asm steps its
    /// machines' memos replayed are not runs). Not part of any
    /// certificate.
    pub runs: LevelRuns,
}

/// A Starling verification failure.
#[derive(Debug)]
pub enum StarlingError {
    /// Front-end or compiler error.
    Build(String),
    /// A lockstep obligation failed.
    Lockstep(parfait::lockstep::LockstepViolation),
    /// The compiler pipeline levels disagree.
    Translation(String),
    /// The two worlds diverged.
    Ipr(String),
}

impl std::fmt::Display for StarlingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StarlingError::Build(e) => write!(f, "build failed: {e}"),
            StarlingError::Lockstep(v) => write!(f, "{v}"),
            StarlingError::Translation(e) => write!(f, "translation validation failed: {e}"),
            StarlingError::Ipr(e) => write!(f, "IPR check failed: {e}"),
        }
    }
}

impl std::error::Error for StarlingError {}

/// Verify an application: spec ≈ littlec `handle` (lockstep), littlec
/// levels pairwise equivalent (translation validation), and spec ≈ asm
/// end-to-end (world equivalence).
///
/// * `spec`, `codec` — the app developer's specification and encodings;
/// * `app_source` — littlec source providing `handle`;
/// * `spec_states` — reachable spec states to check from;
/// * `spec_commands` — spec commands whose encodings seed the input set;
/// * `spec_responses` — sample responses for codec inversion.
pub fn verify_app<C>(
    codec: &C,
    spec: &C::Spec,
    app_source: &str,
    config: &StarlingConfig,
    spec_states: &[<C::Spec as StateMachine>::State],
    spec_commands: &[<C::Spec as StateMachine>::Command],
    spec_responses: &[<C::Spec as StateMachine>::Response],
) -> Result<StarlingReport, StarlingError>
where
    C: Codec<CI = Vec<u8>, RI = Vec<u8>, SI = Vec<u8>>,
    <C::Spec as StateMachine>::Command: Clone + PartialEq + std::fmt::Debug,
    <C::Spec as StateMachine>::State: Clone,
{
    verify_app_with(
        codec,
        spec,
        app_source,
        config,
        spec_states,
        spec_commands,
        spec_responses,
        &Telemetry::disabled(),
        None,
    )
}

/// Each opt level's asm machine of `handle`, over the configured buffer
/// sizes, for [`verify_app_with`].
pub type AsmSource<'a> = &'a (dyn Fn(OptLevel) -> Result<Arc<AsmStateMachine>, String> + 'a);

/// [`verify_app`] with telemetry, taking each opt level's asm machine
/// from `asm_at` (a build memo's, whose step memo other checkers share)
/// instead of compiling its own; `None` compiles them. Obligations 3
/// and 4 count as runs only the steps that ran `handle`.
///
/// Spans: `starling.verify` over the run, nesting
/// `starling.codec_inverse`, `littlec.parse`/`littlec.typecheck`,
/// `starling.lockstep`, `starling.translation` and `starling.ipr`. The
/// Table 3 effort numbers are the report's (and the lockstep
/// certificate's).
#[allow(clippy::too_many_arguments)]
pub fn verify_app_with<C>(
    codec: &C,
    spec: &C::Spec,
    app_source: &str,
    config: &StarlingConfig,
    spec_states: &[<C::Spec as StateMachine>::State],
    spec_commands: &[<C::Spec as StateMachine>::Command],
    spec_responses: &[<C::Spec as StateMachine>::Response],
    tel: &Telemetry,
    asm_at: Option<AsmSource<'_>>,
) -> Result<StarlingReport, StarlingError>
where
    C: Codec<CI = Vec<u8>, RI = Vec<u8>, SI = Vec<u8>>,
    <C::Spec as StateMachine>::Command: Clone + PartialEq + std::fmt::Debug,
    <C::Spec as StateMachine>::State: Clone,
{
    let _run_span = tel.span("starling.verify");
    let mut report = StarlingReport::default();
    // Obligation 1: codec inversion.
    {
        let _span = tel.span("starling.codec_inverse");
        check_codec_inverse(codec, spec_commands, spec_responses)
            .map_err(StarlingError::Lockstep)?;
    }

    let inputs = lockstep_inputs(codec, config, spec_commands);

    // Build the littlec levels. The interp level remembers its results:
    // obligation 3 compares against obligation 2's runs.
    let program = parfait_littlec::frontend_traced(app_source, tel)
        .map_err(|e| StarlingError::Build(e.to_string()))?;
    let interp = Remembered::new(InterpMachine::new(&program, config.response_size));
    let ir = lower(&program).map_err(|e| StarlingError::Build(e.to_string()))?;
    let irm = IrMachine::new(&ir, config.response_size);
    let asm_at = |opt: OptLevel| -> Result<AsmMachine, StarlingError> {
        match asm_at {
            Some(asm_at) => asm_at(opt),
            None => {
                let (s, c, r) = (config.state_size, config.command_size, config.response_size);
                asm_machine(&program, opt, s, c, r).map(Arc::new).map_err(|e| e.to_string())
            }
        }
        .map(AsmMachine::new)
        .map_err(StarlingError::Build)
    };

    // Obligation 2: lockstep simulation at the interp (Low*) level.
    {
        let _span = tel.span("starling.lockstep");
        check_lockstep_simulation(codec, spec, &interp, spec_states, &inputs)
            .map_err(StarlingError::Lockstep)?;
    }
    report.lockstep_cases = spec_states.len() * inputs.len();

    // Obligation 3: translation validation across the pipeline. Interp
    // and IR do not depend on the opt level, so IR is compared with the
    // interp results at the first level only; every level runs asm.
    // The comparisons skipped at later levels passed at the first, so
    // the first failure is the one a level-by-level check reports.
    let translation_span = tel.span("starling.translation");
    // Every level's machine is fetched before any is stepped, the last
    // level first: the equivalence stage takes the same build memo's
    // machines from the first level up on another thread, so the two
    // build different levels at once. A level that does not build
    // still fails where the level-by-level loop reaches it.
    let mut fetched: Vec<_> = config.opt_levels.iter().rev().map(|&opt| asm_at(opt)).collect();
    let mut machines: Vec<(OptLevel, AsmMachine)> = Vec::new();
    for (k, opt) in config.opt_levels.iter().enumerate() {
        let asmm = fetched.pop().expect("one machine per level")?;
        for st in spec_states {
            let si = codec.encode_state(st);
            for input in &inputs {
                let a = interp.step(&si, input);
                if k == 0 {
                    let b = irm.step(&si, input);
                    report.runs.ir += 1;
                    if a != b {
                        return Err(StarlingError::Translation(format!(
                            "interp vs IR diverge on input {input:02x?}"
                        )));
                    }
                }
                let c = asmm.step(&si, input);
                if a != c {
                    return Err(StarlingError::Translation(format!(
                        "IR vs asm ({opt}) diverge on input {input:02x?}"
                    )));
                }
                report.validation_cases += 2;
            }
        }
        machines.push((*opt, asmm));
    }
    drop(translation_span);

    let _ipr_span = tel.span("starling.ipr");
    // Obligation 4: end-to-end IPR between spec and the O2 assembly with
    // the lockstep-derived driver/emulator, over a mixed adversarial
    // trace. The O2 machine is obligation 3's when it validated one.
    let asm = match machines.iter().find(|(opt, _)| *opt == OptLevel::O2) {
        Some((_, m)) => Arc::clone(m.model()),
        None => {
            machines.push((OptLevel::O2, asm_at(OptLevel::O2)?));
            Arc::clone(machines[machines.len() - 1].1.model())
        }
    };
    let asmm = AsmWithInit { inner: AsmMachine::new(asm), init: codec.encode_state(&spec.init()) };
    let spec_with_init = SpecRef(spec);
    let driver = LockstepDriver(codec);
    let mut emu = LockstepEmulator(codec);
    let mut ops: Vec<Op<<C::Spec as StateMachine>::Command, Vec<u8>>> = Vec::new();
    for (i, c) in spec_commands.iter().enumerate() {
        ops.push(Op::Spec(c.clone()));
        if let Some(adv) = inputs.get(spec_commands.len() + i) {
            ops.push(Op::Impl(adv.clone()));
        }
    }
    for adv in inputs.iter().skip(spec_commands.len()) {
        ops.push(Op::Impl(adv.clone()));
    }
    report.ipr_operations = ops.len();
    check_ipr(&spec_with_init, &asmm, &driver, &mut emu, &ops)
        .map_err(|ce| StarlingError::Ipr(ce.to_string()))?;
    report.runs.interp = interp.runs.get();
    report.runs.asm = machines.iter().map(|(_, m)| m.runs()).sum::<usize>() + asmm.inner.runs();
    Ok(report)
}

/// A pair of byte buffers: `(state, command)` or `(state', response)`.
type BufPair = (Vec<u8>, Vec<u8>);

/// A whole-command machine that runs each distinct (state, command)
/// once and replays its result after.
struct Remembered<M> {
    inner: M,
    seen: RefCell<HashMap<BufPair, BufPair>>,
    /// Steps `inner` ran.
    runs: Cell<usize>,
}

impl<M> Remembered<M> {
    fn new(inner: M) -> Self {
        Remembered { inner, seen: RefCell::default(), runs: Cell::new(0) }
    }
}

impl<M> StateMachine for Remembered<M>
where
    M: StateMachine<State = Vec<u8>, Command = Vec<u8>, Response = Vec<u8>>,
{
    type State = Vec<u8>;
    type Command = Vec<u8>;
    type Response = Vec<u8>;

    fn init(&self) -> Vec<u8> {
        self.inner.init()
    }

    fn step(&self, s: &Vec<u8>, c: &Vec<u8>) -> (Vec<u8>, Vec<u8>) {
        let key = (s.clone(), c.clone());
        if let Some(hit) = self.seen.borrow().get(&key) {
            return hit.clone();
        }
        let out = self.inner.step(s, c);
        self.runs.set(self.runs.get() + 1);
        self.seen.borrow_mut().insert(key, out.clone());
        out
    }
}

/// The implementation inputs Starling checks from every spec state:
/// each spec command's encoding, then `config.adversarial_inputs`
/// seeded random buffers, then one seeded bit flip of each command's
/// encoding (flips often hit the decode boundary cases).
pub fn lockstep_inputs<C>(
    codec: &C,
    config: &StarlingConfig,
    spec_commands: &[<C::Spec as StateMachine>::Command],
) -> Vec<Vec<u8>>
where
    C: Codec<CI = Vec<u8>>,
{
    let mut inputs: Vec<Vec<u8>> = spec_commands.iter().map(|c| codec.encode_command(c)).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    for _ in 0..config.adversarial_inputs {
        let mut buf = vec![0u8; config.command_size];
        rng.fill(&mut buf[..]);
        inputs.push(buf);
    }
    for c in spec_commands {
        let mut enc = codec.encode_command(c);
        let i = rng.random_range(0..enc.len());
        enc[i] ^= 1u8 << rng.random_range(0..8u8);
        inputs.push(enc);
    }
    inputs
}

/// Adapter fixing the asm machine's initial state to the encoded spec
/// initial state.
struct AsmWithInit {
    inner: AsmMachine,
    init: Vec<u8>,
}

impl StateMachine for AsmWithInit {
    type State = Vec<u8>;
    type Command = Vec<u8>;
    type Response = Vec<u8>;

    fn init(&self) -> Vec<u8> {
        self.init.clone()
    }

    fn step(&self, s: &Vec<u8>, c: &Vec<u8>) -> (Vec<u8>, Vec<u8>) {
        self.inner.step(s, c)
    }
}

/// A by-reference spec wrapper (the generic checker takes machines by
/// value reference).
struct SpecRef<'a, M>(&'a M);

impl<M: StateMachine> StateMachine for SpecRef<'_, M> {
    type State = M::State;
    type Command = M::Command;
    type Response = M::Response;

    fn init(&self) -> M::State {
        self.0.init()
    }

    fn step(&self, s: &M::State, c: &M::Command) -> (M::State, M::Response) {
        self.0.step(s, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait::machine::examples::CounterCmd;
    use parfait::machine::FnMachine;

    /// A littlec counter `handle`: state 4 bytes LE; commands as in the
    /// theory-crate examples but sized: [tag, le32] = 5 bytes; response
    /// 4 bytes.
    const COUNTER_LC: &str = "
        void handle(u8* state, u8* cmd, u8* resp) {
            u32* s = (u32*)state;
            u32* r = (u32*)resp;
            u32 arg = cmd[1] | (cmd[2] << 8) | (cmd[3] << 16) | (cmd[4] << 24);
            if (cmd[0] == 1) {
                s[0] = s[0] + arg;
                r[0] = 0;
                return;
            }
            if (cmd[0] == 2) {
                if (arg == 0) {
                    r[0] = s[0];
                    return;
                }
            }
            r[0] = 0xffffffff;
        }
    ";

    struct CounterCodec;

    impl Codec for CounterCodec {
        type Spec = FnMachine<u32, CounterCmd, u32>;
        type CI = Vec<u8>;
        type RI = Vec<u8>;
        type SI = Vec<u8>;

        fn encode_command(&self, c: &CounterCmd) -> Vec<u8> {
            match c {
                CounterCmd::Add(n) => {
                    let mut b = vec![1];
                    b.extend_from_slice(&n.to_le_bytes());
                    b
                }
                CounterCmd::Get => vec![2, 0, 0, 0, 0],
            }
        }
        fn decode_command(&self, c: &Vec<u8>) -> Option<CounterCmd> {
            if c.len() != 5 {
                return None;
            }
            let arg = u32::from_le_bytes([c[1], c[2], c[3], c[4]]);
            match c[0] {
                1 => Some(CounterCmd::Add(arg)),
                2 if arg == 0 => Some(CounterCmd::Get),
                _ => None,
            }
        }
        fn encode_response(&self, r: Option<&u32>) -> Vec<u8> {
            match r {
                Some(v) => v.to_le_bytes().to_vec(),
                None => vec![0xFF; 4],
            }
        }
        fn decode_response(&self, r: &Vec<u8>) -> u32 {
            u32::from_le_bytes([r[0], r[1], r[2], r[3]])
        }
        fn encode_state(&self, s: &u32) -> Vec<u8> {
            s.to_le_bytes().to_vec()
        }
    }

    fn counter_spec() -> FnMachine<u32, CounterCmd, u32> {
        parfait::machine::examples::counter_spec()
    }

    fn config() -> StarlingConfig {
        StarlingConfig {
            state_size: 4,
            command_size: 5,
            response_size: 4,
            ..StarlingConfig::default()
        }
    }

    #[test]
    fn verifies_correct_counter() {
        let report = verify_app(
            &CounterCodec,
            &counter_spec(),
            COUNTER_LC,
            &config(),
            &[0, 1, 41, u32::MAX],
            &[CounterCmd::Add(0), CounterCmd::Add(7), CounterCmd::Get],
            &[0, 7, u32::MAX],
        )
        .unwrap();
        assert!(report.lockstep_cases > 0);
        assert!(report.ipr_operations > 0);
        // Interp and IR run once per (state, input); the validation
        // count stays two per (opt level, state, input).
        assert_eq!(report.runs.interp, report.lockstep_cases);
        assert_eq!(report.runs.ir, report.lockstep_cases);
        assert_eq!(report.validation_cases, 2 * 3 * report.lockstep_cases);
        assert!(report.runs.asm >= report.lockstep_cases, "{:?}", report.runs);
    }

    #[test]
    fn reports_an_interp_ir_disagreement_at_its_first_input() {
        // Sibling blocks reuse the interpreter's stack addresses; the IR
        // gives each frame slot its own. The leaked address is 0x7000_0000
        // to the interpreter, so the lockstep check (interp vs spec)
        // passes, and translation validation must name the first input.
        let leaky = COUNTER_LC
            .replace(
                "u32* s = (u32*)state;",
                "if (1) { u32 a[4]; a[0] = 1; }
            u32 b[4];
            b[0] = 0;
            u32* s = (u32*)state;",
            )
            .replace("r[0] = 0;", "r[0] = ((u32)b) & 0xFF;");
        let commands = [CounterCmd::Add(7), CounterCmd::Get];
        let err =
            verify_app(&CounterCodec, &counter_spec(), &leaky, &config(), &[5], &commands, &[0])
                .unwrap_err();
        let first = CounterCodec.encode_command(&commands[0]);
        assert_eq!(
            err.to_string(),
            format!("translation validation failed: interp vs IR diverge on input {first:02x?}")
        );
    }

    #[test]
    fn catches_state_leak_on_invalid_input() {
        // Bug: the error path leaks the counter value (the paper's
        // "software-level leakage" bug class, §7.2).
        let leaky = COUNTER_LC.replace("r[0] = 0xffffffff;", "r[0] = s[0];");
        let err = verify_app(
            &CounterCodec,
            &counter_spec(),
            &leaky,
            &config(),
            &[41],
            &[CounterCmd::Add(1)],
            &[0],
        )
        .unwrap_err();
        assert!(matches!(err, StarlingError::Lockstep(_)), "{err}");
    }

    #[test]
    fn catches_logic_bug() {
        // Bug: Add is off by one (the "software logic bug" class).
        let buggy = COUNTER_LC.replace("s[0] = s[0] + arg;", "s[0] = s[0] + arg + 1;");
        let err = verify_app(
            &CounterCodec,
            &counter_spec(),
            &buggy,
            &config(),
            &[0, 5],
            &[CounterCmd::Add(3), CounterCmd::Get],
            &[0],
        )
        .unwrap_err();
        assert!(matches!(err, StarlingError::Lockstep(_)), "{err}");
    }

    #[test]
    fn catches_state_mutation_on_invalid_input() {
        // Bug: invalid commands clobber the state.
        let buggy = COUNTER_LC.replace("r[0] = 0xffffffff;", "s[0] = 0; r[0] = 0xffffffff;");
        let err = verify_app(
            &CounterCodec,
            &counter_spec(),
            &buggy,
            &config(),
            &[9],
            &[CounterCmd::Get],
            &[0],
        )
        .unwrap_err();
        assert!(matches!(err, StarlingError::Lockstep(_)), "{err}");
    }
}
