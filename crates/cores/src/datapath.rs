//! Shared RV32IM datapath semantics and the core/SoC interfaces.

use std::sync::Arc;

use parfait_riscv::decode::decode;
use parfait_riscv::isa::{AluOp, Instr, LoadOp, Reg, StoreOp};
use parfait_riscv::predecode::DecodeCache;
use parfait_rtl::W;

use crate::contract::InstrClass;

/// Memory interface a core uses within a cycle.
///
/// Fetches are side-effect free (ROM/RAM only); data reads may have MMIO
/// side effects and are issued exactly once per executed load.
pub trait MemIf {
    /// Instruction fetch at a word-aligned address.
    fn fetch(&mut self, addr: u32) -> u32;
    /// Data read of the aligned word containing `addr`.
    fn read(&mut self, addr: u32) -> W;
    /// Data write with a byte-lane mask.
    fn write(&mut self, addr: u32, val: W, mask: u8);
}

/// Why secret data reached control state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeakKind {
    /// A branch condition depended on tainted data.
    BranchOnSecret,
    /// An indirect jump target was tainted.
    JumpTargetSecret,
    /// A load/store address was tainted.
    AddrSecret,
    /// A variable-latency unit (divider, serial shifter) consumed
    /// tainted data.
    VarLatencySecret,
}

/// A recorded information-flow violation inside a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeakEvent {
    /// Cycle at which the flow was observed.
    pub cycle: u64,
    /// PC of the offending instruction.
    pub pc: u32,
    /// What kind of flow occurred.
    pub kind: LeakKind,
    /// Instruction class of the offending instruction — ties the event
    /// to the contract clause it witnesses (see [`crate::contract`]).
    pub class: InstrClass,
}

/// A fatal condition that the verification layer reports as failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Illegal instruction word.
    Illegal { pc: u32, word: u32 },
    /// Misaligned load/store.
    Misaligned { pc: u32, addr: u32 },
    /// `ecall`/`ebreak` executed (the firmware never does this).
    Env { pc: u32 },
}

/// The cycle-steppable CPU interface the SoC and Knox2 use.
///
/// Cores are plain data and cheaply snapshottable via
/// [`Core::clone_box`], which is what makes the SoC `Clone`.
pub trait Core {
    /// Advance one clock cycle.
    fn step(&mut self, mem: &mut dyn MemIf);
    /// Snapshot this core (the object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Core>;
    /// Architectural register file (with taint).
    fn regs(&self) -> &[W; 32];
    /// Current fetch PC.
    fn pc(&self) -> u32;
    /// The instruction currently in the decode/execute stage, if valid —
    /// the paper's fig. 10 "encoding of next RISC-V instruction".
    fn instr_in_decode(&self) -> Option<(u32, u32)>;
    /// Instruction retired during the last `step`, if any: (word, pc).
    fn last_retired(&self) -> Option<(u32, u32)>;
    /// Total retired instructions.
    fn retired(&self) -> u64;
    /// Cycles elapsed.
    fn cycles(&self) -> u64;
    /// Information-flow violations observed so far.
    fn leaks(&self) -> &[LeakEvent];
    /// Fatal fault, if any.
    fn fault(&self) -> Option<&Fault>;
    /// Reset to the boot PC with cleared registers.
    fn reset(&mut self, pc: u32);
    /// Attach a pre-decoded instruction cache covering the fetch
    /// address space (the SoC's ROM). Fetches the cache covers skip the
    /// bus and the per-cycle decode; everything else falls back to the
    /// uncached path bit-for-bit. Default: caching unsupported (no-op).
    fn attach_decode_cache(&mut self, _cache: Arc<DecodeCache>) {}
    /// Drain this core's decode-cache `(hits, misses)` counters,
    /// resetting them to zero — callers flush the delta into the
    /// metrics registry at run boundaries, not per cycle. Misses count
    /// fetches an *attached* cache did not cover; a core without a
    /// cache reports `(0, 0)`.
    fn take_decode_stats(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

impl Clone for Box<dyn Core> {
    fn clone(&self) -> Box<dyn Core> {
        self.clone_box()
    }
}

/// A deliberately seeded micro-architectural bug, used by the
/// `parfait-adversary` mutation harness (DESIGN.md §12) to prove the
/// FPS check catches hardware-level faults. A core constructed
/// `with_fault` misbehaves in one specific, classified way; `None`
/// (the only value production code ever passes) leaves the model
/// bit-for-bit identical to the unseeded one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededFault {
    /// Ibex: the EX stage reads a stale register value for any source
    /// that the immediately preceding instruction wrote — a broken
    /// forwarding/bypass path.
    StaleForwarding,
    /// Pico: the iterative multiplier exits early once the smaller
    /// operand runs out of bits — the variable-latency multiplier the
    /// paper's modified Ibex removed (§7.1) — and the taint check on
    /// that latency path is missing, so only the dual-world timing
    /// comparison can see it.
    MulEarlyExit,
    /// Ibex: the divider takes three cycles longer than the exported
    /// contract admits — an understated latency clause. The contract
    /// battery's dividend sweep measures the discrepancy directly.
    ContractLatencyUnderstated,
    /// Ibex: the barrel shifter is secretly serialized (one extra cycle
    /// per 8 bits of amount) while the contract still declares a fixed
    /// single-cycle shift — a hidden operand dependence.
    ContractHiddenOperandDep,
    /// Pico: the divider's taint check is dropped, so tainted operands
    /// no longer raise the contract-declared `VarLatencySecret` event.
    /// Timing is unchanged, so constant-time firmware sails through the
    /// dual-world FPS comparison — only the contract battery's tainted
    /// stimulus notices the silent clause.
    ContractTaintSilent,
}

/// Classification of an executed instruction, for per-core latency
/// tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Simple ALU / lui / auipc.
    Alu,
    /// Shift (latency may depend on the amount on serial shifters).
    Shift {
        /// Shift amount actually used.
        amount: u32,
        /// Whether the amount came from a register.
        from_reg: bool,
        /// Whether the amount was tainted.
        amount_tainted: bool,
    },
    /// Multiply; operand values carried for latency models that
    /// (incorrectly) depend on them.
    Mul {
        /// First operand value.
        a: u32,
        /// Second operand value.
        b: u32,
        /// Whether an operand was tainted.
        operands_tainted: bool,
    },
    /// Divide / remainder.
    Div {
        /// Dividend value (latency models depend on it).
        dividend: u32,
        /// Whether an operand was tainted.
        operand_tainted: bool,
    },
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch; `taken` tells whether it redirected.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
    /// jal/jalr.
    Jump,
    /// fence (no-op).
    Fence,
}

/// The result of executing one instruction on the shared datapath.
pub struct Exec {
    /// Next PC.
    pub next_pc: u32,
    /// Classification for latency modeling.
    pub class: OpClass,
}

/// Execute `word` (fetched at `pc`) against `regs`/`mem`.
///
/// All value computation, taint propagation, leak recording, and fault
/// detection is shared between cores here; only *latency* differs per
/// core.
pub fn execute(
    word: u32,
    pc: u32,
    regs: &mut [W; 32],
    mem: &mut dyn MemIf,
    cycle: u64,
    leaks: &mut Vec<LeakEvent>,
    fault: &mut Option<Fault>,
) -> Exec {
    let instr = match decode(word) {
        Ok(i) => i,
        Err(_) => {
            *fault = Some(Fault::Illegal { pc, word });
            return Exec { next_pc: pc, class: OpClass::Alu };
        }
    };
    execute_decoded(instr, pc, regs, mem, cycle, leaks, fault)
}

/// [`execute`] for an already-decoded instruction — the decode-cache
/// fast path. Semantically identical to `execute(encode(instr), ...)`;
/// illegal words never reach this (they fail decode, so the caller
/// raises [`Fault::Illegal`] itself).
pub fn execute_decoded(
    instr: Instr,
    pc: u32,
    regs: &mut [W; 32],
    mem: &mut dyn MemIf,
    cycle: u64,
    leaks: &mut Vec<LeakEvent>,
    fault: &mut Option<Fault>,
) -> Exec {
    let rd_write = |regs: &mut [W; 32], r: Reg, v: W| {
        if r != Reg::ZERO {
            regs[r.0 as usize] = v;
        }
    };
    let r = |regs: &[W; 32], r: Reg| if r == Reg::ZERO { W::pub32(0) } else { regs[r.0 as usize] };
    let mut next_pc = pc.wrapping_add(4);
    let class = match instr {
        Instr::Lui { rd, imm } => {
            rd_write(regs, rd, W::pub32((imm as u32) << 12));
            OpClass::Alu
        }
        Instr::Auipc { rd, imm } => {
            rd_write(regs, rd, W::pub32(pc.wrapping_add((imm as u32) << 12)));
            OpClass::Alu
        }
        Instr::Jal { rd, off } => {
            rd_write(regs, rd, W::pub32(next_pc));
            next_pc = pc.wrapping_add(off as u32);
            OpClass::Jump
        }
        Instr::Jalr { rd, rs1, off } => {
            let base = r(regs, rs1);
            if base.t {
                leaks.push(LeakEvent {
                    cycle,
                    pc,
                    kind: LeakKind::JumpTargetSecret,
                    class: InstrClass::Jump,
                });
            }
            let target = base.v.wrapping_add(off as u32) & !1;
            rd_write(regs, rd, W::pub32(next_pc));
            next_pc = target;
            OpClass::Jump
        }
        Instr::Branch { op, rs1, rs2, off } => {
            let a = r(regs, rs1);
            let b = r(regs, rs2);
            if a.t || b.t {
                leaks.push(LeakEvent {
                    cycle,
                    pc,
                    kind: LeakKind::BranchOnSecret,
                    class: InstrClass::Branch,
                });
            }
            let taken = op.taken(a.v, b.v);
            if taken {
                next_pc = pc.wrapping_add(off as u32);
            }
            OpClass::Branch { taken }
        }
        Instr::Load { op, rd, rs1, off } => {
            let base = r(regs, rs1);
            if base.t {
                leaks.push(LeakEvent {
                    cycle,
                    pc,
                    kind: LeakKind::AddrSecret,
                    class: InstrClass::Load,
                });
            }
            let addr = base.v.wrapping_add(off as u32);
            let aligned_ok = match op {
                LoadOp::Lw => addr % 4 == 0,
                LoadOp::Lh | LoadOp::Lhu => addr % 2 == 0,
                _ => true,
            };
            if !aligned_ok {
                *fault = Some(Fault::Misaligned { pc, addr });
                return Exec { next_pc: pc, class: OpClass::Load };
            }
            let w = mem.read(addr & !3);
            let sh = 8 * (addr % 4);
            let v = match op {
                LoadOp::Lb => ((w.v >> sh) as u8 as i8 as i32) as u32,
                LoadOp::Lbu => (w.v >> sh) as u8 as u32,
                LoadOp::Lh => ((w.v >> sh) as u16 as i16 as i32) as u32,
                LoadOp::Lhu => (w.v >> sh) as u16 as u32,
                LoadOp::Lw => w.v,
            };
            rd_write(regs, rd, W { v, t: w.t || base.t });
            OpClass::Load
        }
        Instr::Store { op, rs1, rs2, off } => {
            let base = r(regs, rs1);
            if base.t {
                leaks.push(LeakEvent {
                    cycle,
                    pc,
                    kind: LeakKind::AddrSecret,
                    class: InstrClass::Store,
                });
            }
            let addr = base.v.wrapping_add(off as u32);
            let val = r(regs, rs2);
            let (mask, shifted): (u8, u32) = match op {
                StoreOp::Sb => (1 << (addr % 4), (val.v & 0xFF) << (8 * (addr % 4))),
                StoreOp::Sh => {
                    if addr % 2 != 0 {
                        *fault = Some(Fault::Misaligned { pc, addr });
                        return Exec { next_pc: pc, class: OpClass::Store };
                    }
                    (0x3 << (addr % 4), (val.v & 0xFFFF) << (8 * (addr % 4)))
                }
                StoreOp::Sw => {
                    if addr % 4 != 0 {
                        *fault = Some(Fault::Misaligned { pc, addr });
                        return Exec { next_pc: pc, class: OpClass::Store };
                    }
                    (0xF, val.v)
                }
            };
            mem.write(addr & !3, W { v: shifted, t: val.t }, mask);
            OpClass::Store
        }
        Instr::OpImm { op, rd, rs1, imm } => {
            let a = r(regs, rs1);
            let v = W { v: op.eval(a.v, imm as u32), t: a.t };
            rd_write(regs, rd, v);
            match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => OpClass::Shift {
                    amount: (imm as u32) & 31,
                    from_reg: false,
                    amount_tainted: false,
                },
                _ => OpClass::Alu,
            }
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            let a = r(regs, rs1);
            let b = r(regs, rs2);
            let v = W { v: op.eval(a.v, b.v), t: a.t || b.t };
            rd_write(regs, rd, v);
            match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                    OpClass::Shift { amount: b.v & 31, from_reg: true, amount_tainted: b.t }
                }
                AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => {
                    OpClass::Mul { a: a.v, b: b.v, operands_tainted: a.t || b.t }
                }
                AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => {
                    OpClass::Div { dividend: a.v, operand_tainted: a.t || b.t }
                }
                _ => OpClass::Alu,
            }
        }
        Instr::Fence => OpClass::Fence,
        Instr::Ecall | Instr::Ebreak => {
            *fault = Some(Fault::Env { pc });
            OpClass::Alu
        }
    };
    Exec { next_pc, class }
}

/// Source registers an instruction reads (for the seeded stale-forwarding
/// fault, which needs to know whether the EX stage consumes the previous
/// instruction's result).
pub(crate) fn instr_sources(i: &Instr) -> (Option<Reg>, Option<Reg>) {
    match *i {
        Instr::Jalr { rs1, .. } | Instr::Load { rs1, .. } | Instr::OpImm { rs1, .. } => {
            (Some(rs1), None)
        }
        Instr::Branch { rs1, rs2, .. }
        | Instr::Store { rs1, rs2, .. }
        | Instr::Op { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
        _ => (None, None),
    }
}

/// Destination register an instruction writes, if architecturally
/// visible (`x0` writes are discarded).
pub(crate) fn instr_dest(i: &Instr) -> Option<Reg> {
    match *i {
        Instr::Lui { rd, .. }
        | Instr::Auipc { rd, .. }
        | Instr::Jal { rd, .. }
        | Instr::Jalr { rd, .. }
        | Instr::Load { rd, .. }
        | Instr::OpImm { rd, .. }
        | Instr::Op { rd, .. } => (rd != Reg::ZERO).then_some(rd),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_riscv::encode::encode;

    struct FlatMem {
        data: Vec<W>,
    }

    impl MemIf for FlatMem {
        fn fetch(&mut self, addr: u32) -> u32 {
            self.data[(addr / 4) as usize].v
        }
        fn read(&mut self, addr: u32) -> W {
            self.data[(addr / 4) as usize]
        }
        fn write(&mut self, addr: u32, val: W, mask: u8) {
            let old = self.data[(addr / 4) as usize];
            let mut v = old.v;
            for lane in 0..4 {
                if mask & (1 << lane) != 0 {
                    let sh = 8 * lane;
                    v = (v & !(0xFF << sh)) | (val.v & (0xFF << sh));
                }
            }
            self.data[(addr / 4) as usize] = W { v, t: old.t || val.t };
        }
    }

    fn exec1(word: u32, regs: &mut [W; 32]) -> (Exec, Vec<LeakEvent>, Option<Fault>) {
        let mut mem = FlatMem { data: vec![W::default(); 64] };
        let mut leaks = Vec::new();
        let mut fault = None;
        let e = execute(word, 0x100, regs, &mut mem, 7, &mut leaks, &mut fault);
        (e, leaks, fault)
    }

    #[test]
    fn branch_on_secret_flagged() {
        let mut regs = [W::default(); 32];
        regs[5] = W::secret(1);
        let word = encode(Instr::Branch {
            op: parfait_riscv::isa::BranchOp::Ne,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            off: 8,
        });
        let (e, leaks, fault) = exec1(word, &mut regs);
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].kind, LeakKind::BranchOnSecret);
        assert_eq!(e.next_pc, 0x108);
        assert!(fault.is_none());
    }

    #[test]
    fn public_branch_not_flagged() {
        let mut regs = [W::default(); 32];
        regs[5] = W::pub32(1);
        let word = encode(Instr::Branch {
            op: parfait_riscv::isa::BranchOp::Eq,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            off: 8,
        });
        let (_, leaks, _) = exec1(word, &mut regs);
        assert!(leaks.is_empty());
    }

    #[test]
    fn secret_address_flagged() {
        let mut regs = [W::default(); 32];
        regs[5] = W::secret(16);
        let word = encode(Instr::Load { op: LoadOp::Lw, rd: Reg::A0, rs1: Reg::T0, off: 0 });
        let (_, leaks, _) = exec1(word, &mut regs);
        assert_eq!(leaks[0].kind, LeakKind::AddrSecret);
    }

    #[test]
    fn div_on_secret_classified() {
        let mut regs = [W::default(); 32];
        regs[5] = W::secret(100);
        regs[6] = W::pub32(7);
        let word = encode(Instr::Op { op: AluOp::Divu, rd: Reg::A0, rs1: Reg::T0, rs2: Reg::T1 });
        let (e, _, _) = exec1(word, &mut regs);
        match e.class {
            OpClass::Div { dividend, operand_tainted } => {
                assert_eq!(dividend, 100);
                assert!(operand_tainted);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(regs[10].v, 14);
        assert!(regs[10].t);
    }

    #[test]
    fn taint_propagates_through_alu() {
        let mut regs = [W::default(); 32];
        regs[5] = W::secret(3);
        regs[6] = W::pub32(4);
        let word = encode(Instr::Op { op: AluOp::Add, rd: Reg::A0, rs1: Reg::T0, rs2: Reg::T1 });
        let (_, leaks, _) = exec1(word, &mut regs);
        assert!(leaks.is_empty(), "data flow is allowed");
        assert_eq!(regs[10].v, 7);
        assert!(regs[10].t);
    }

    #[test]
    fn faults_detected() {
        let mut regs = [W::default(); 32];
        let (_, _, fault) = exec1(0xFFFF_FFFF, &mut regs);
        assert!(matches!(fault, Some(Fault::Illegal { .. })));
        regs[5] = W::pub32(2);
        let word = encode(Instr::Load { op: LoadOp::Lw, rd: Reg::A0, rs1: Reg::T0, off: 0 });
        let (_, _, fault) = exec1(word, &mut regs);
        assert!(matches!(fault, Some(Fault::Misaligned { addr: 2, .. })));
        let (_, _, fault) = exec1(encode(Instr::Ebreak), &mut regs);
        assert!(matches!(fault, Some(Fault::Env { .. })));
    }

    #[test]
    fn subword_stores_mask_correctly() {
        let mut mem = FlatMem { data: vec![W::pub32(0xAABBCCDD); 4] };
        let mut regs = [W::default(); 32];
        regs[5] = W::pub32(5); // address (byte 1 of word 1)
        regs[6] = W::pub32(0x11223344);
        let word = encode(Instr::Store { op: StoreOp::Sb, rs1: Reg::T0, rs2: Reg::T1, off: 0 });
        let mut leaks = Vec::new();
        let mut fault = None;
        execute(word, 0, &mut regs, &mut mem, 0, &mut leaks, &mut fault);
        assert_eq!(mem.data[1].v, 0xAABB44DD);
    }
}

/// Test support shared by the core models' unit tests.
#[cfg(test)]
pub mod tests_support {
    use super::*;
    use parfait_riscv::asm::assemble;

    /// A flat little memory backed by the assembler, fetch==read space.
    pub struct ProgMem {
        pub words: Vec<W>,
    }

    impl ProgMem {
        /// Assemble `src` at base 0 into a fresh memory.
        pub fn from_asm(src: &str) -> ProgMem {
            let p = assemble(src).expect("test program assembles");
            let mut words = vec![W::default(); 4096];
            for (i, w) in p.text.iter().enumerate() {
                words[i] = W::pub32(*w);
            }
            ProgMem { words }
        }

        /// Poke a data word.
        pub fn set_word(&mut self, addr: u32, w: W) {
            self.words[(addr / 4) as usize] = w;
        }
    }

    impl MemIf for ProgMem {
        fn fetch(&mut self, addr: u32) -> u32 {
            self.words[(addr / 4) as usize].v
        }
        fn read(&mut self, addr: u32) -> W {
            self.words[(addr / 4) as usize]
        }
        fn write(&mut self, addr: u32, val: W, mask: u8) {
            let old = self.words[(addr / 4) as usize];
            let mut v = old.v;
            for lane in 0..4 {
                if mask & (1 << lane) != 0 {
                    let sh = 8 * lane;
                    v = (v & !(0xFF << sh)) | (val.v & (0xFF << sh));
                }
            }
            self.words[(addr / 4) as usize] = W { v, t: old.t || val.t };
        }
    }
}
