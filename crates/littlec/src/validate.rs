//! Translation validation across the littlec compilation pipeline.
//!
//! The paper relates the Low\*, C, and Asm levels by *IPR by equivalence*,
//! justified by the correctness theorems of KaRaMeL and CompCert (§4.2).
//! littlec has no mechanized compiler proof, so — per the paper's own
//! fallback for unverified steps — we use **translation validation**
//! (§9): for a *particular* program, check that the whole-command state
//! machines at all three levels are observationally equivalent by
//! differential execution on concrete inputs.
//!
//! [`validate_handle_levels`] drives the three levels' `step` functions
//! on the same `(state, command)` pairs at every opt level and demands
//! identical `(state', response)` results; [`validate_function`] does the
//! same for a scalar function. A mismatch is reported with the diverging level and values,
//! like a failed Knox2 equivalence check.

use std::borrow::Borrow;

use parfait_riscv::asm::assemble;
use parfait_riscv::model::AsmStateMachine;

use crate::ast::Program;
use crate::codegen::{compile, OptLevel};
use crate::interp::Interp;
use crate::ir::lower;
use crate::ireval::IrEval;
use crate::LcError;

/// A divergence found by translation validation.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which pair of levels disagreed, e.g. `"interp vs ir"`.
    pub levels: String,
    /// Human-readable description of the differing observation.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "translation validation failed ({}): {}", self.levels, self.detail)
    }
}

impl std::error::Error for Divergence {}

/// Errors from the validation driver itself (not divergences).
#[derive(Debug)]
pub enum ValidateError {
    /// A front-end or backend phase failed.
    Lc(LcError),
    /// One of the levels failed to execute.
    Exec(String),
    /// The levels disagree.
    Diverged(Divergence),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::Lc(e) => write!(f, "{e}"),
            ValidateError::Exec(e) => write!(f, "execution error: {e}"),
            ValidateError::Diverged(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl From<LcError> for ValidateError {
    fn from(e: LcError) -> Self {
        ValidateError::Lc(e)
    }
}

/// Callers that report failures as text.
impl From<ValidateError> for String {
    fn from(e: ValidateError) -> Self {
        e.to_string()
    }
}

/// Build the assembly-level whole-command state machine for a program's
/// `handle` function at the given optimization level.
pub fn asm_machine(
    program: &Program,
    opt: OptLevel,
    state_size: usize,
    command_size: usize,
    response_size: usize,
) -> Result<AsmStateMachine, ValidateError> {
    asm_machine_patched(program, opt, state_size, command_size, response_size, |a| a)
}

/// [`asm_machine`] with a hook applied to the compiled assembly text
/// before it is assembled. Production callers pass the identity; the
/// `parfait-adversary` mutation harness (DESIGN.md §12) injects
/// "miscompilations" here to prove the validator rejects them.
pub fn asm_machine_patched(
    program: &Program,
    opt: OptLevel,
    state_size: usize,
    command_size: usize,
    response_size: usize,
    patch_asm: impl FnOnce(String) -> String,
) -> Result<AsmStateMachine, ValidateError> {
    let asm = patch_asm(compile(program, opt)?);
    asm_machine_of(&asm, state_size, command_size, response_size)
}

/// The assembly-level machine of already compiled assembly text.
pub fn asm_machine_of(
    asm: &str,
    state_size: usize,
    command_size: usize,
    response_size: usize,
) -> Result<AsmStateMachine, ValidateError> {
    let prog = assemble(asm)
        .map_err(|e| ValidateError::Exec(format!("generated assembly does not assemble: {e}")))?;
    AsmStateMachine::new(prog, state_size, command_size, response_size)
        .ok_or_else(|| ValidateError::Exec("program has no `handle` function".into()))
}

/// Validate `handle` across all three levels on the given test cases.
///
/// Each case is a `(state, command)` pair; all levels must produce
/// identical `(state', response)` observations.
pub fn validate_handle(
    program: &Program,
    opt: OptLevel,
    response_size: usize,
    cases: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), ValidateError> {
    validate_handle_levels(program, &[opt], response_size, cases, |opt| {
        let (state, command) = cases.first().expect("at least one validation case");
        asm_machine(program, opt, state.len(), command.len(), response_size)
    })
    .map(|_| ())
    .map_err(|(_, e)| e)
}

/// Whole-command runs each level made in one validation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelRuns {
    /// `handle` runs under the Low\* interpreter.
    pub interp: usize,
    /// `handle` runs under the IR evaluator.
    pub ir: usize,
    /// Runs of the compiled `handle`, over every opt level. A step the
    /// machine's memo already held is not a run.
    pub asm: usize,
}

/// Validate `handle` at each opt level in `levels`, in order, on the
/// given cases: interp, IR and asm must produce identical `(state',
/// response)` observations.
///
/// The interp and IR results do not depend on the opt level, so they
/// are computed once per case, at the first level, and compared there;
/// each later level compares only its asm run against them. A check
/// skipped at a later level has already passed at the first, so the
/// first failing comparison, and the level it is reported at, are those
/// of a level-by-level validation.
///
/// `asm_at` supplies each level's asm machine. A failure comes back
/// with its level.
pub fn validate_handle_levels<M, E>(
    program: &Program,
    levels: &[OptLevel],
    response_size: usize,
    cases: &[(Vec<u8>, Vec<u8>)],
    mut asm_at: impl FnMut(OptLevel) -> Result<M, E>,
) -> Result<LevelRuns, (OptLevel, E)>
where
    M: Borrow<AsmStateMachine>,
    E: From<ValidateError>,
{
    let mut runs = LevelRuns::default();
    let Some(&first) = levels.first() else { return Ok(runs) };
    let interp = Interp::new(program);
    let ir = lower(program).map_err(|e| (first, ValidateError::from(e).into()))?;
    let ireval = IrEval::new(&ir);
    assert!(!cases.is_empty(), "at least one validation case");
    // Each case's interp result, once it has matched IR.
    let mut expected: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(cases.len());
    for &level in levels {
        let fail = |e: ValidateError| (level, E::from(e));
        let asm = asm_at(level).map_err(|e| (level, e))?;
        for (i, (state, command)) in cases.iter().enumerate() {
            if i == expected.len() {
                let a = interp
                    .step(state, command, response_size)
                    .map_err(|e| fail(ValidateError::Exec(format!("interp: {e}"))))?;
                runs.interp += 1;
                let b = ireval
                    .step(state, command, response_size)
                    .map_err(|e| fail(ValidateError::Exec(format!("ireval: {e}"))))?;
                runs.ir += 1;
                if a != b {
                    return Err(fail(ValidateError::Diverged(Divergence {
                        levels: "interp (Low*) vs ireval (C)".into(),
                        detail: format!(
                            "state={state:02x?} cmd={command:02x?}: {:02x?}/{:02x?} vs {:02x?}/{:02x?}",
                            a.0, a.1, b.0, b.1
                        ),
                    })));
                }
                expected.push(a);
            }
            let a = &expected[i];
            let (c, ran) = asm
                .borrow()
                .step_uncounted(state, command)
                .map_err(|e| fail(ValidateError::Exec(format!("asm: {e}"))))?;
            runs.asm += usize::from(ran);
            if *a != c {
                return Err(fail(ValidateError::Diverged(Divergence {
                    levels: "ireval (C) vs asm".into(),
                    detail: format!(
                        "state={state:02x?} cmd={command:02x?}: {:02x?}/{:02x?} vs {:02x?}/{:02x?}",
                        a.0, a.1, c.0, c.1
                    ),
                })));
            }
        }
    }
    Ok(runs)
}

/// Validate a scalar function across all three levels on argument tuples.
pub fn validate_function(
    program: &Program,
    opt: OptLevel,
    name: &str,
    cases: &[Vec<u32>],
) -> Result<(), ValidateError> {
    let interp = Interp::new(program);
    let ir = lower(program)?;
    let ireval = IrEval::new(&ir);
    let asm_text = compile(program, opt)?;
    let prog = assemble(&asm_text)
        .map_err(|e| ValidateError::Exec(format!("generated assembly does not assemble: {e}")))?;
    let entry =
        prog.address_of(name).ok_or_else(|| ValidateError::Exec(format!("no symbol `{name}`")))?;
    for args in cases {
        let a = interp.call(name, args).map_err(|e| ValidateError::Exec(format!("interp: {e}")))?;
        let b = ireval.call(name, args).map_err(|e| ValidateError::Exec(format!("ireval: {e}")))?;
        if a != b {
            return Err(ValidateError::Diverged(Divergence {
                levels: "interp (Low*) vs ireval (C)".into(),
                detail: format!("{name}({args:?}) = {a:#x} vs {b:#x}"),
            }));
        }
        let mut m = parfait_riscv::machine::Machine::with_program(&prog);
        let c = m
            .call(entry, args, 500_000_000)
            .map_err(|e| ValidateError::Exec(format!("asm: {e}")))?;
        if a != c {
            return Err(ValidateError::Diverged(Divergence {
                levels: "ireval (C) vs asm".into(),
                detail: format!("{name}({args:?}) = {a:#x} vs {c:#x}"),
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    #[test]
    fn validates_correct_program() {
        let src = "
            u32 mix(u32 a, u32 b) {
                u32 x = a ^ (b << 3);
                return x * 2654435761 + (a >> 5);
            }
        ";
        let p = frontend(src).unwrap();
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            validate_function(
                &p,
                opt,
                "mix",
                &[vec![0, 0], vec![1, 2], vec![u32::MAX, 12345], vec![0xdeadbeef, 42]],
            )
            .unwrap();
        }
    }

    #[test]
    fn validates_handle_roundtrip() {
        let src = "
            void handle(u8* state, u8* cmd, u8* resp) {
                u32 acc = 0;
                for (u32 i = 0; i < 8; i = i + 1) { acc = acc + cmd[i]; }
                resp[0] = (u8)acc;
                resp[1] = state[0];
                state[0] = (u8)(state[0] ^ cmd[0]);
            }
        ";
        let p = frontend(src).unwrap();
        let cases = vec![
            (vec![0u8; 4], vec![1, 2, 3, 4, 5, 6, 7, 8]),
            (vec![9; 4], vec![0xFF; 8]),
            (vec![1, 2, 3, 4], vec![0; 8]),
        ];
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            validate_handle(&p, opt, 4, &cases).unwrap();
        }
    }
}
