//! Assembly-circuit synchronization (paper §5.4).
//!
//! While the SoC executes `handle`, the checker steps the Riscette
//! ISA-level machine instruction-by-instruction alongside the
//! cycle-level core. At each sync point it applies the platform mapping
//! — architectural registers correspond index-wise to the core's
//! register file, pointers address the same flat memory, and the "next
//! RISC-V instruction" signal is the core's decode-stage instruction
//! (fig. 10) — and checks the states component-wise. This replaces one
//! huge end-of-execution equivalence query with many small ones
//! (fig. 11), and it catches microarchitectural bugs ("pipeline hazard
//! in CPU implementation", §7.2) at the precise instruction where the
//! ISA and the hardware disagree.

use parfait_riscv::decode::decode;
use parfait_riscv::isa::Instr;
use parfait_riscv::machine::Machine;
use parfait_rtl::Circuit;
use parfait_soc::{Soc, FRAM_BASE, FRAM_SIZE, RAM_BASE, RAM_SIZE, ROM_BASE};

/// When to perform a register-file synchronization check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncWhen {
    /// At every retired instruction (most precise, most checks).
    EveryInstruction,
    /// At control-flow and memory instructions (the fig. 11 policy).
    ControlAndMem,
    /// Never during execution; only the final state is compared
    /// (the monolithic pre-Knox2 strategy, for the ablation bench).
    Never,
}

/// Synchronization policy.
#[derive(Clone, Copy, Debug)]
pub struct SyncPolicy {
    /// When to compare register files.
    pub registers: SyncWhen,
    /// Cap on instructions to execute (safety fuel).
    pub max_instructions: u64,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy { registers: SyncWhen::ControlAndMem, max_instructions: 200_000_000 }
    }
}

/// Statistics from a synchronized execution.
#[derive(Clone, Debug, Default)]
pub struct SyncStats {
    /// Instructions executed by both machines.
    pub instructions: u64,
    /// SoC cycles consumed.
    pub cycles: u64,
    /// Register-file comparisons performed.
    pub sync_points: u64,
    /// Individual component equalities proven (register compares).
    pub component_checks: u64,
}

/// A synchronization failure, with enough context to debug (the paper's
/// development-cycle story in §8.1).
#[derive(Debug)]
pub enum SyncError {
    /// The core and the ISA machine disagree about the next instruction.
    InstructionMismatch {
        /// Instruction index.
        index: u64,
        /// PC where they diverged.
        pc: u32,
        /// What the hardware retired.
        hardware: u32,
        /// What the ISA model expected to execute.
        isa: u32,
    },
    /// A register differs at a sync point.
    RegisterMismatch {
        /// Instruction index.
        index: u64,
        /// PC of the just-retired instruction.
        pc: u32,
        /// Register number.
        reg: usize,
        /// Hardware value.
        hardware: u32,
        /// ISA value.
        isa: u32,
    },
    /// The ISA machine trapped.
    IsaTrap(String),
    /// The SoC faulted.
    SocFault(String),
    /// Fuel exhausted before `handle` returned.
    OutOfFuel,
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::InstructionMismatch { index, pc, hardware, isa } => write!(
                f,
                "instruction {index}: at pc={pc:#010x} hardware retired {hardware:#010x} but ISA expects {isa:#010x}"
            ),
            SyncError::RegisterMismatch { index, pc, reg, hardware, isa } => write!(
                f,
                "instruction {index} (pc={pc:#010x}): x{reg} differs, hardware={hardware:#010x} isa={isa:#010x}"
            ),
            SyncError::IsaTrap(e) => write!(f, "ISA machine trapped: {e}"),
            SyncError::SocFault(e) => write!(f, "SoC faulted: {e}"),
            SyncError::OutOfFuel => write!(f, "synchronization fuel exhausted"),
        }
    }
}

impl std::error::Error for SyncError {}

/// Whether this instruction class is a fig. 11 sync point.
fn is_sync_point(i: Instr) -> bool {
    matches!(
        i,
        Instr::Branch { .. }
            | Instr::Jal { .. }
            | Instr::Jalr { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
    )
}

/// Build an ISA machine mirroring the SoC's current architectural state
/// (the fig. 10 register and pointer mapping: registers map index-wise;
/// pointers map to the identical flat addresses).
pub fn snapshot_isa_machine(soc: &Soc) -> Machine {
    let mut m = Machine::new();
    for (i, w) in soc.core.regs().iter().enumerate() {
        m.regs[i] = w.v;
    }
    m.pc = soc.core.instr_in_decode().map(|(_, pc)| pc).unwrap_or_else(|| soc.core.pc());
    // Copy the memories at their mapped addresses.
    m.mem.store_bytes(ROM_BASE, &soc.rom.dump_bytes(0, soc.rom.len_bytes()));
    m.mem.store_bytes(RAM_BASE, &soc.ram.dump_bytes(0, RAM_SIZE as usize));
    m.mem.store_bytes(FRAM_BASE, &soc.fram.dump_bytes(0, FRAM_SIZE as usize));
    m
}

/// Run the SoC until the core is about to execute the instruction at
/// `addr` (it is in the decode stage). Returns the cycles consumed.
pub fn run_until_decode(soc: &mut Soc, addr: u32, max_cycles: u64) -> Result<u64, SyncError> {
    let mut n = 0;
    loop {
        if let Some((_, pc)) = soc.core.instr_in_decode() {
            if pc == addr {
                return Ok(n);
            }
        }
        if n >= max_cycles {
            return Err(SyncError::OutOfFuel);
        }
        soc.tick();
        n += 1;
        if let Some(f) = soc.fault() {
            return Err(SyncError::SocFault(f));
        }
    }
}

/// Synchronize the execution of one `handle` invocation.
///
/// Pre-condition: the SoC's decode stage holds `handle`'s first
/// instruction (use [`run_until_decode`]). The function executes until
/// `handle` returns (the ISA PC comes back to the entry `ra`), stepping
/// the ISA machine at every hardware retirement and checking the state
/// correspondence per `policy`.
pub fn sync_handle_execution(soc: &mut Soc, policy: &SyncPolicy) -> Result<SyncStats, SyncError> {
    let mut isa = snapshot_isa_machine(soc);
    let return_addr = isa.regs[1]; // ra at handle entry
    let mut stats = SyncStats::default();
    loop {
        if stats.instructions >= policy.max_instructions {
            return Err(SyncError::OutOfFuel);
        }
        soc.tick();
        stats.cycles += 1;
        if let Some(f) = soc.fault() {
            return Err(SyncError::SocFault(f));
        }
        let Some((word, pc)) = soc.core.last_retired() else {
            continue;
        };
        // The ISA machine must be at the same instruction.
        if isa.pc != pc {
            return Err(SyncError::InstructionMismatch {
                index: stats.instructions,
                pc,
                hardware: word,
                isa: isa.mem.load_u32(isa.pc),
            });
        }
        let isa_word = isa.mem.load_u32(isa.pc);
        if isa_word != word {
            return Err(SyncError::InstructionMismatch {
                index: stats.instructions,
                pc,
                hardware: word,
                isa: isa_word,
            });
        }
        isa.step().map_err(|e| SyncError::IsaTrap(e.to_string()))?;
        stats.instructions += 1;
        // Sync point?
        let instr = decode(word).map_err(|e| SyncError::IsaTrap(e.to_string()))?;
        let do_sync = match policy.registers {
            SyncWhen::EveryInstruction => true,
            SyncWhen::ControlAndMem => is_sync_point(instr),
            SyncWhen::Never => false,
        };
        if do_sync {
            stats.sync_points += 1;
            for (i, w) in soc.core.regs().iter().enumerate() {
                stats.component_checks += 1;
                if w.v != isa.regs[i] {
                    return Err(SyncError::RegisterMismatch {
                        index: stats.instructions,
                        pc,
                        reg: i,
                        hardware: w.v,
                        isa: isa.regs[i],
                    });
                }
            }
        }
        // Done when handle returns.
        if isa.pc == return_addr {
            // Final full-register check regardless of policy.
            for (i, w) in soc.core.regs().iter().enumerate() {
                stats.component_checks += 1;
                if w.v != isa.regs[i] {
                    return Err(SyncError::RegisterMismatch {
                        index: stats.instructions,
                        pc,
                        reg: i,
                        hardware: w.v,
                        isa: isa.regs[i],
                    });
                }
            }
            return Ok(stats);
        }
    }
}
