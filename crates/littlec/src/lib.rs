//! littlec — a small C-like language and verified-compiler stand-in.
//!
//! In the Parfait paper, HSM application code is written in Low\*,
//! compiled to C by KaRaMeL, and compiled to RISC-V assembly by CompCert;
//! each level is modeled as a whole-command state machine and related by
//! *IPR by equivalence* using the compilers' correctness theorems (§4.2).
//!
//! This crate reproduces that pipeline executably:
//!
//! * [`token`], [`ast`], [`parser`] — the littlec surface language
//!   (C-like: `u32`/`u8` scalars, pointers, fixed arrays, functions);
//! * [`typeck`] — the type checker;
//! * [`interp`] — a reference interpreter over the AST; this is the
//!   "App Impl \[Low\*\]" level of abstraction;
//! * [`ir`] — lowering to a CFG-based three-address IR; the IR under
//!   [`ireval`] is the "App Impl \[C\]" level;
//! * [`opt`], [`regalloc`], [`codegen`] — the compiler backend producing
//!   RV32IM assembly at three optimization levels (`-O0`, `-O1`, `-O2`);
//!   the compiled code under the Riscette machine is the
//!   "App Impl \[Asm\]" level;
//! * [`validate`] — the translation-validation harness that checks
//!   observational equivalence of the three levels (the executable
//!   analogue of the compiler-correctness theorems Parfait leans on).

#![forbid(unsafe_code)]

pub mod ast;
pub mod codegen;
pub mod diag;
pub mod interp;
pub mod ir;
pub mod ireval;
pub mod loop_bounds;
pub mod opt;
pub mod parser;
pub mod regalloc;
pub mod token;
pub mod typeck;
pub mod validate;

pub use ast::Program;
pub use codegen::{compile, OptLevel};
pub use interp::Interp;
pub use parser::parse;
pub use typeck::typecheck;

/// Errors from any littlec front-end or back-end phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LcError {
    /// 1-based source line, or 0 when not tied to a source location.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl LcError {
    /// Create an error at a source line (0 when not source-tied).
    pub fn new(line: usize, msg: impl Into<String>) -> Self {
        LcError { line, msg: msg.into() }
    }
}

impl std::fmt::Display for LcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "littlec error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LcError {}

/// Parse and type-check a littlec source file.
///
/// ```
/// let program = parfait_littlec::frontend(
///     "u32 dbl(u32 x) { return x + x; }",
/// ).unwrap();
/// let interp = parfait_littlec::interp::Interp::new(&program);
/// assert_eq!(interp.call("dbl", &[21]).unwrap(), 42);
///
/// // The same function, compiled to RV32IM and run on the ISA machine.
/// let asm = parfait_littlec::compile(&program, parfait_littlec::OptLevel::O2).unwrap();
/// let prog = parfait_riscv::assemble(&asm).unwrap();
/// let mut m = parfait_riscv::Machine::with_program(&prog);
/// let entry = prog.address_of("dbl").unwrap();
/// assert_eq!(m.call(entry, &[21], 1000).unwrap(), 42);
/// ```
pub fn frontend(source: &str) -> Result<Program, LcError> {
    frontend_traced(source, &parfait_telemetry::Telemetry::disabled())
}

/// [`frontend`] with telemetry: `littlec.parse` and `littlec.typecheck`
/// spans around the two front-end phases.
pub fn frontend_traced(
    source: &str,
    tel: &parfait_telemetry::Telemetry,
) -> Result<Program, LcError> {
    let program = {
        let _span = tel.span("littlec.parse");
        parser::parse(source)?
    };
    {
        let _span = tel.span("littlec.typecheck");
        typeck::typecheck(&program)?;
    }
    Ok(program)
}
