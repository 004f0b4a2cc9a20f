//! parfait-knox2 — hardware verification for HSM SoCs (§5).
//!
//! Knox2 proves IPR between the assembly-level `handle` model (the spec
//! for this level) and the complete SoC, by **functional-physical
//! simulation**. This crate reproduces that machinery executably:
//!
//! * [`driver`] — the wire-level driver (§5.2): the I/O protocol a
//!   well-behaved client uses, built from the three circuit-level
//!   primitives `set_input` / `get_output` / `tick`;
//! * [`emulator`] — the circuit emulator template (§5.3): a fresh SoC
//!   instance running on *dummy* persistent state; it watches for the
//!   start of `handle`, reads the (public) command bytes out of its
//!   circuit's RAM, queries the specification, and injects the response
//!   at the commit point of `store_state`;
//! * [`fps`] — the checker: drives the real SoC and the emulator's SoC
//!   with identical wire inputs and demands **cycle-exact equality** of
//!   the output wires. Since the emulator never sees the real secrets,
//!   equality implies both correctness and non-leakage (including
//!   timing). The checker also validates the fig. 9 refinement relation
//!   at quiescent points and reports any taint flow into control state.
//!   One check is one lock-step chain on one thread: each cycle's
//!   comparison needs both worlds' state after the previous cycle;
//! * [`sync`] — assembly-circuit synchronization (§5.4): steps the
//!   Riscette ISA machine instruction-by-instruction against the
//!   cycle-level core, checking the developer-supplied state
//!   correspondence (fig. 10) at the sync points of fig. 11. This keeps
//!   each equivalence check small instead of one giant end-of-execution
//!   comparison — and catches microarchitectural bugs (pipeline
//!   hazards) that whole-command comparison would attribute to the
//!   wrong place.

#![forbid(unsafe_code)]

pub mod driver;
pub mod emulator;
pub mod fps;
pub mod script;
pub mod sync;

pub use driver::WireDriver;
pub use emulator::CircuitEmulator;
pub use fps::{
    check_fps, check_fps_dual_traced, check_fps_traced, ByteSpec, FpsConfig, FpsError, FpsFailure,
    FpsObserver, FpsReport, HostOp,
};
pub use script::{adversarial_script, smoke_script};
pub use sync::{sync_handle_execution, SyncError, SyncPolicy, SyncStats, SyncWhen};
