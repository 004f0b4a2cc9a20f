//! parfait-starling — software verification for HSM applications (§4).
//!
//! Starling relates the application specification (a
//! [`parfait::StateMachine`]) to the byte-level `handle` implementation
//! by **IPR by lockstep**. Where the paper encodes the lockstep property
//! as the F\* pre/postcondition of `handle` (fig. 7) and discharges it
//! with Z3, this crate discharges the same obligations executably:
//!
//! 1. codec inversion (`decode ∘ encode = id`),
//! 2. the two lockstep-simulation cases of fig. 6, checked over a mix of
//!    reachable spec states, encoded valid commands, and adversarially
//!    mutated/garbage inputs,
//! 3. translation validation of the compiler pipeline (interp → IR →
//!    asm at every optimization level), standing in for the KaRaMeL and
//!    CompCert correctness theorems (*IPR by equivalence*),
//! 4. an end-to-end `check_ipr` between the spec and the compiled
//!    assembly with the lockstep-derived driver and emulator.
//!
//! The [`machines`] module provides the whole-command state-machine
//! adapters for the littlec levels (Table 1's middle rows).

#![forbid(unsafe_code)]

pub mod machines;
pub mod verify;

pub use verify::{
    lockstep_inputs, verify_app, verify_app_with, AsmSource, StarlingConfig, StarlingError,
    StarlingReport,
};
