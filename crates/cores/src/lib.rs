//! parfait-cores — cycle-accurate RV32IM processor models.
//!
//! The paper's case studies run on two CPUs: the OpenTitan **Ibex** (a
//! 2-stage pipelined core, §7.1, with the multiplier replaced by a
//! single-cycle full-width multiply) and the **PicoRV32** (a
//! size-optimized multi-cycle core). This crate provides cycle-accurate
//! Rust models of both microarchitectural shapes:
//!
//! * [`ibex::IbexCore`] — 2-stage pipeline: 1 instruction/cycle steady
//!   state, 2-cycle loads/stores, 2-cycle taken branches, single-cycle
//!   multiply, and a **data-dependent-latency divider** (deliberately
//!   retained so the verification layer can catch hardware timing
//!   leaks, §7.2);
//! * [`pico::PicoCore`] — multi-cycle: every instruction pays a 2-cycle
//!   fetch plus an execute latency; shifts are serial (4 bits/cycle,
//!   like PicoRV32's small shifter), multiply is a fixed 32-cycle
//!   iteration, divide is data-dependent.
//!
//! Both cores operate on tainted words ([`parfait_rtl::W`]) and record a
//! [`LeakEvent`] whenever secret-derived data reaches control state: a
//! branch condition, a jump target, a load/store address, or the operand
//! of a variable-latency functional unit. This is the executable
//! analogue of Knox2 detecting "secret data entering the control state
//! of the circuit" (§8.1).
//!
//! Each core *exports* its observable model as a [`LeakageContract`]
//! ([`ibex::contract`], [`pico::contract`]) and derives its cycle
//! charging from it; [`contract::check_core`] verifies a core against a
//! contract with a per-instruction-class stimulus battery.

#![forbid(unsafe_code)]

pub mod contract;
pub mod datapath;
pub mod ibex;
pub mod pico;

pub use contract::{
    check_core, BatteryReport, Clause, ContractError, InstrClass, Latency, LatencyDep,
    LeakageContract,
};
pub use datapath::{
    unzip_core, zip_cores, Core, Fault, LeakEvent, LeakKind, MemIf, SeededFault, Step,
};
pub use ibex::IbexCore;
pub use pico::PicoCore;
