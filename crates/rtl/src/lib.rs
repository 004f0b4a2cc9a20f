//! parfait-rtl — a cycle-accurate hardware modeling kit with
//! information-flow (taint) tracking.
//!
//! In the paper, the SoC is written in Verilog and converted by Yosys
//! into a step model that Knox2 executes symbolically, with secret data
//! represented as symbolic variables. This crate is the executable
//! stand-in: hardware is modeled as Rust structs with an explicit
//! [`Circuit`] cycle-step interface (`set_input` / `get_output` /
//! `tick`, exactly the three commands of the circuit-level state machine
//! in §3), and every stored word carries a **taint bit** standing in for
//! "symbolic secret". Where Knox2's solver would prove that no secret
//! influences wire-level behaviour, our checker observes that no tainted
//! value reaches an output wire's *presence* (handshake timing) or the
//! processor's control state — and backs it with two-run trace
//! equivalence (see `parfait-knox2`).

#![forbid(unsafe_code)]

pub mod circuit;
pub mod fifo;
pub mod mem;
pub mod value;
pub mod vcd;

pub use circuit::{Circuit, RingTrace, Trace, TraceEvent, WireIn, WireOut};
pub use fifo::Fifo;
pub use mem::TaintMem;
pub use value::{Pair, Word, W};
