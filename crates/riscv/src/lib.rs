//! RV32IM instruction-set infrastructure for Parfait.
//!
//! This crate is the Rust analogue of two components of the Parfait paper:
//!
//! * the CompCert RISC-V **Asm** level of abstraction (§3, Table 1), and
//! * **Riscette** (§5.1), the single-steppable executable semantics of
//!   RISC-V assembly that Knox2 uses during assembly-circuit
//!   synchronization.
//!
//! It provides:
//!
//! * [`isa`] — the RV32IM instruction type, registers, and disassembly;
//! * [`encode`] / [`decode`] — binary instruction encoding and decoding;
//! * [`asm`] — a two-pass textual assembler and linker producing flat
//!   memory images with a symbol table;
//! * [`machine`] — the Riscette abstract machine: an instruction-by-
//!   instruction steppable RV32IM interpreter with a CompCert-style
//!   `alloc`/`storebytes`/`loadbytes` buffer API;
//! * [`model`] — the "model-Asm" interpretation (paper fig. 8) that treats
//!   one invocation of `handle` as a single whole-command state-machine
//!   step;
//! * [`predecode`] — `Arc`-shared pre-decoded instruction caches over
//!   immutable ROM images, the cycle-accurate cores' fetch/decode fast
//!   path.

#![forbid(unsafe_code)]

pub mod asm;
pub mod decode;
pub mod encode;
pub mod isa;
pub mod machine;
pub mod model;
pub mod predecode;
mod uop;

pub use asm::{assemble, AsmError, Program};
pub use isa::{Instr, Reg};
pub use machine::{Machine, StepOutcome, TrapCause};
pub use model::AsmStateMachine;
