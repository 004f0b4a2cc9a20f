//! Shared RV32IM datapath semantics and the core/SoC interfaces.
//!
//! Everything here is generic over the [`Word`] a world stores: plain
//! [`W`] for one world, [`Pair`] for the FPS product world, where one
//! core steps both worlds' control over paired data. Control (next pc,
//! bus address, latency) comes from [`control`]; [`decide`] takes it
//! from lane 0 once every lane agrees, before the core changes anything.

use std::any::Any;
use std::sync::Arc;

use parfait_riscv::isa::{AluOp, Instr, LoadOp, Reg, StoreOp};
use parfait_riscv::predecode::DecodeCache;
use parfait_rtl::{Pair, Word, W};

use crate::contract::InstrClass;

/// Memory interface a core uses within a cycle.
///
/// Fetches are side-effect free (ROM/RAM only); data reads may have MMIO
/// side effects and are issued exactly once per executed load.
pub trait MemIf<P: Word = W> {
    /// Instruction fetch at a word-aligned address.
    fn fetch(&mut self, addr: u32) -> u32;
    /// Data read of the aligned word containing `addr`.
    fn read(&mut self, addr: u32) -> P;
    /// Data write with a byte-lane mask.
    fn write(&mut self, addr: u32, val: P, mask: u8);
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

/// The leak events of each world a core simulates: lane 0 (the only
/// world, or the product's real world) and lane 1 (the product's ideal
/// world). Each lane's events come from that lane's own taint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct LeakLog {
    lanes: [Vec<LeakEvent>; 2],
}

impl LeakLog {
    /// Record `event` in every lane whose bit is set in `lanes`.
    #[inline]
    pub(crate) fn record(&mut self, lanes: u8, event: LeakEvent) {
        if lanes & 1 != 0 {
            self.lanes[0].push(event);
        }
        if lanes & 2 != 0 {
            self.lanes[1].push(event);
        }
    }

    /// Lane `i`'s events.
    pub(crate) fn lane(&self, i: usize) -> &[LeakEvent] {
        &self.lanes[i]
    }

    /// Two single-world logs as one product log.
    pub(crate) fn zip(real: &LeakLog, ideal: &LeakLog) -> LeakLog {
        LeakLog { lanes: [real.lanes[0].clone(), ideal.lanes[0].clone()] }
    }

    /// The (real, ideal) single-world logs of a product log.
    pub(crate) fn unzip(&self) -> (LeakLog, LeakLog) {
        let half = |i: usize| LeakLog { lanes: [self.lanes[i].clone(), Vec::new()] };
        (half(0), half(1))
    }
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

/// The cycle-steppable CPU interface the SoC and Knox2 use, over the
/// word type `P` of the world(s) it simulates.
///
/// Cores are plain data and cheaply snapshottable via
/// [`Core::clone_box`], which is what makes the SoC `Clone`.
pub trait Core<P: Word = W> {
    /// Advance one clock cycle. A product core (more than one lane)
    /// first decides the cycle's control for every lane — next pc, bus
    /// address, latency — and when two lanes would disagree it changes
    /// nothing and returns [`Step::Refused`]. With one lane it always
    /// steps.
    fn step(&mut self, mem: &mut dyn MemIf<P>) -> Step;
    /// Snapshot this core (the object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Core<P>>;
    /// Architectural register file (with taint).
    fn regs(&self) -> &[P; 32];
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
    /// Information-flow violations observed so far (lane 0's, in a
    /// product core).
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
    /// This core as [`Any`], so [`zip_cores`] can find its concrete type.
    fn as_any(&self) -> &dyn Any;
}

/// What one [`Core::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The cycle ran, retiring the given instruction, if any: (word,
    /// pc) — what [`Core::last_retired`] then reports.
    Ran(Option<(u32, u32)>),
    /// A product core refused the cycle, changing nothing: its lanes'
    /// control would disagree in it.
    Refused,
}

impl<P: Word> Clone for Box<dyn Core<P>> {
    fn clone(&self) -> Box<dyn Core<P>> {
        self.clone_box()
    }
}

/// Two worlds' cores as one product core (real in lane 0), or `None`
/// when they are of different models or any single state differs: pc,
/// pipeline and stall state, counters, fault, seeded fault or decode
/// cache.
pub fn zip_cores(real: &dyn Core, ideal: &dyn Core) -> Option<Box<dyn Core<Pair>>> {
    use crate::{IbexCore, PicoCore};
    let (r, i) = (real.as_any(), ideal.as_any());
    if let (Some(r), Some(i)) = (r.downcast_ref::<IbexCore>(), i.downcast_ref::<IbexCore>()) {
        return IbexCore::zip(r, i).map(|c| Box::new(c) as Box<dyn Core<Pair>>);
    }
    if let (Some(r), Some(i)) = (r.downcast_ref::<PicoCore>(), i.downcast_ref::<PicoCore>()) {
        return PicoCore::zip(r, i).map(|c| Box::new(c) as Box<dyn Core<Pair>>);
    }
    None
}

/// The (real, ideal) cores of a product core made by [`zip_cores`].
pub fn unzip_core(core: &dyn Core<Pair>) -> (Box<dyn Core>, Box<dyn Core>) {
    use crate::{IbexCore, PicoCore};
    fn boxed<C: Core + 'static>((r, i): (C, C)) -> (Box<dyn Core>, Box<dyn Core>) {
        (Box::new(r), Box::new(i))
    }
    let any = core.as_any();
    if let Some(c) = any.downcast_ref::<IbexCore<Pair>>() {
        return boxed(c.unzip());
    }
    match any.downcast_ref::<PicoCore<Pair>>() {
        Some(c) => boxed(c.unzip()),
        None => unreachable!("product cores are made only by zip_cores"),
    }
}

/// Whether two optional decode caches are the same one (or both absent).
pub(crate) fn same_cache(a: &Option<Arc<DecodeCache>>, b: &Option<Arc<DecodeCache>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// Zip two single-world register files.
pub(crate) fn zip_regs(real: &[W; 32], ideal: &[W; 32]) -> [Pair; 32] {
    std::array::from_fn(|i| Pair { real: real[i], ideal: ideal[i] })
}

/// Lane `lane` of a product register file.
pub(crate) fn lane_regs(regs: &[Pair; 32], lane: usize) -> [W; 32] {
    std::array::from_fn(|i| regs[i].lane(lane))
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
/// tables. It carries operand *values* only; their taint travels per
/// lane in [`Exec::tainted`].
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
    },
    /// Multiply; operand values carried for latency models that
    /// (incorrectly) depend on them.
    Mul {
        /// First operand value.
        a: u32,
        /// Second operand value.
        b: u32,
    },
    /// Divide / remainder.
    Div {
        /// Dividend value (latency models depend on it).
        dividend: u32,
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
    /// Lanes (bit `i` = lane `i`) in which a variable-latency unit's
    /// operand was tainted: a shift amount read from a register, or a
    /// divide's operands.
    pub tainted: u8,
}

/// The control decisions of one instruction, taken from its `rs1` and
/// `rs2` values `a` and `b` in one world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Control {
    /// The next pc (ignoring faults, which never depend on data).
    next_pc: u32,
    /// The load or store address (0 for other instructions).
    addr: u32,
    /// The class the core charges latency from.
    class: OpClass,
}

/// The control decisions of `instr` at `pc` — the one place they are
/// computed, for execution and for the product core's agreement check.
#[inline]
fn control(instr: Instr, pc: u32, a: u32, b: u32) -> Control {
    let mut next_pc = pc.wrapping_add(4);
    let mut addr = 0;
    let class = match instr {
        Instr::Jal { off, .. } => {
            next_pc = pc.wrapping_add(off as u32);
            OpClass::Jump
        }
        Instr::Jalr { off, .. } => {
            next_pc = a.wrapping_add(off as u32) & !1;
            OpClass::Jump
        }
        Instr::Branch { op, off, .. } => {
            let taken = op.taken(a, b);
            if taken {
                next_pc = pc.wrapping_add(off as u32);
            }
            OpClass::Branch { taken }
        }
        Instr::Load { off, .. } => {
            addr = a.wrapping_add(off as u32);
            OpClass::Load
        }
        Instr::Store { off, .. } => {
            addr = a.wrapping_add(off as u32);
            OpClass::Store
        }
        Instr::OpImm { op: AluOp::Sll | AluOp::Srl | AluOp::Sra, imm, .. } => {
            OpClass::Shift { amount: (imm as u32) & 31, from_reg: false }
        }
        Instr::Op { op, .. } => match op {
            AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                OpClass::Shift { amount: b & 31, from_reg: true }
            }
            AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => OpClass::Mul { a, b },
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => OpClass::Div { dividend: a },
            _ => OpClass::Alu,
        },
        Instr::Fence => OpClass::Fence,
        _ => OpClass::Alu,
    };
    Control { next_pc, addr, class }
}

/// The control decisions of `instr` at `pc` from its operands `a`
/// (rs1) and `b` (rs2) — lane 0's, once every lane agrees on the next
/// pc, the bus address and the `latency` the core charges; `None` when
/// two lanes disagree. Lanes whose operand values agree trivially do,
/// so only differing operands run [`control`] per lane.
#[inline]
fn decide<P: Word>(
    instr: Instr,
    pc: u32,
    a: P,
    b: P,
    latency: impl Fn(&OpClass) -> u32,
) -> Option<Control> {
    let ctl = control(instr, pc, a.lane(0).v, b.lane(0).v);
    if P::LANES == 1 || (a.values_agree() && b.values_agree()) {
        return Some(ctl);
    }
    let key = |c: &Control| (c.next_pc, c.addr, latency(&c.class));
    let first = key(&ctl);
    (1..P::LANES)
        .all(|lane| key(&control(instr, pc, a.lane(lane).v, b.lane(lane).v)) == first)
        .then_some(ctl)
}

/// The values of `instr`'s source registers (rs1, rs2) through `read`;
/// zero for a source it does not have.
#[inline]
fn operands<P: Word>(instr: &Instr, read: impl Fn(Reg) -> P) -> (P, P) {
    let (s1, s2) = instr_sources(instr);
    (s1.map_or(P::default(), &read), s2.map_or(P::default(), &read))
}

/// Register `r`'s value (`x0` reads zero).
#[inline]
fn reg<P: Word>(regs: &[P; 32], r: Reg) -> P {
    if r == Reg::ZERO {
        P::default()
    } else {
        regs[r.0 as usize]
    }
}

/// Execute `instr`, fetched at `pc`, against `regs`/`mem` — or, when a
/// product core's lanes would disagree on its control ([`decide`],
/// charging `latency`), refuse it with `None` before changing
/// anything. `stale` is a register whose read in this stage returns
/// an older value (a seeded forwarding bug); `cycle` stamps leak
/// events.
///
/// All value computation, taint propagation, leak recording, and fault
/// detection is shared between cores here; only *latency* differs per
/// core. Every datum is computed per lane, and each lane records its
/// own leaks.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn execute<P: Word>(
    instr: Instr,
    pc: u32,
    stale: Option<(usize, P)>,
    regs: &mut [P; 32],
    mem: &mut dyn MemIf<P>,
    cycle: u64,
    leaks: &mut LeakLog,
    fault: &mut Option<Fault>,
    latency: impl Fn(&OpClass) -> u32,
) -> Option<Exec> {
    // Dispatch on the instruction once: each arm inlines the whole
    // execution for one kind, so the matches inside it fold away.
    macro_rules! one {
        () => {
            execute_one(instr, pc, stale, regs, mem, cycle, leaks, fault, latency)
        };
    }
    match instr {
        Instr::Lui { .. } => one!(),
        Instr::Auipc { .. } => one!(),
        Instr::Jal { .. } => one!(),
        Instr::Jalr { .. } => one!(),
        Instr::Branch { .. } => one!(),
        Instr::Load { .. } => one!(),
        Instr::Store { .. } => one!(),
        Instr::OpImm { .. } => one!(),
        Instr::Op { .. } => one!(),
        Instr::Fence => one!(),
        Instr::Ecall | Instr::Ebreak => one!(),
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn execute_one<P: Word>(
    instr: Instr,
    pc: u32,
    stale: Option<(usize, P)>,
    regs: &mut [P; 32],
    mem: &mut dyn MemIf<P>,
    cycle: u64,
    leaks: &mut LeakLog,
    fault: &mut Option<Fault>,
    latency: impl Fn(&OpClass) -> u32,
) -> Option<Exec> {
    let (a, b) = operands(&instr, |r| match stale {
        Some((idx, old)) if r.0 as usize == idx => old,
        _ => reg(regs, r),
    });
    let ctl = decide(instr, pc, a, b, latency)?;
    let rd_write = |regs: &mut [P; 32], r: Reg, v: P| {
        if r != Reg::ZERO {
            regs[r.0 as usize] = v;
        }
    };
    let public = |v: u32| P::splat(W::pub32(v));
    let leak = |kind, class| LeakEvent { cycle, pc, kind, class };
    let Control { next_pc, addr, class } = ctl;
    let mut tainted = 0;
    match instr {
        Instr::Lui { rd, imm } => rd_write(regs, rd, public((imm as u32) << 12)),
        Instr::Auipc { rd, imm } => rd_write(regs, rd, public(pc.wrapping_add((imm as u32) << 12))),
        Instr::Jal { rd, .. } => rd_write(regs, rd, public(pc.wrapping_add(4))),
        Instr::Jalr { rd, .. } => {
            leaks.record(a.taint_lanes(), leak(LeakKind::JumpTargetSecret, InstrClass::Jump));
            rd_write(regs, rd, public(pc.wrapping_add(4)));
        }
        Instr::Branch { .. } => {
            let lanes = a.taint_lanes() | b.taint_lanes();
            leaks.record(lanes, leak(LeakKind::BranchOnSecret, InstrClass::Branch));
        }
        Instr::Load { op, rd, .. } => {
            leaks.record(a.taint_lanes(), leak(LeakKind::AddrSecret, InstrClass::Load));
            let aligned_ok = match op {
                LoadOp::Lw => addr % 4 == 0,
                LoadOp::Lh | LoadOp::Lhu => addr % 2 == 0,
                _ => true,
            };
            if !aligned_ok {
                *fault = Some(Fault::Misaligned { pc, addr });
                return Some(Exec { next_pc: pc, class: OpClass::Load, tainted: 0 });
            }
            let w = mem.read(addr & !3);
            let sh = 8 * (addr % 4);
            let v = w.zip_lanes(a, |w, base| {
                let v = match op {
                    LoadOp::Lb => ((w.v >> sh) as u8 as i8 as i32) as u32,
                    LoadOp::Lbu => (w.v >> sh) as u8 as u32,
                    LoadOp::Lh => ((w.v >> sh) as u16 as i16 as i32) as u32,
                    LoadOp::Lhu => (w.v >> sh) as u16 as u32,
                    LoadOp::Lw => w.v,
                };
                W { v, t: w.t || base.t }
            });
            rd_write(regs, rd, v);
        }
        Instr::Store { op, .. } => {
            leaks.record(a.taint_lanes(), leak(LeakKind::AddrSecret, InstrClass::Store));
            let sh = 8 * (addr % 4);
            let (mask, width): (u8, u32) = match op {
                StoreOp::Sb => (1 << (addr % 4), 0xFF),
                StoreOp::Sh => {
                    if addr % 2 != 0 {
                        *fault = Some(Fault::Misaligned { pc, addr });
                        return Some(Exec { next_pc: pc, class: OpClass::Store, tainted: 0 });
                    }
                    (0x3 << (addr % 4), 0xFFFF)
                }
                StoreOp::Sw => {
                    if addr % 4 != 0 {
                        *fault = Some(Fault::Misaligned { pc, addr });
                        return Some(Exec { next_pc: pc, class: OpClass::Store, tainted: 0 });
                    }
                    (0xF, u32::MAX)
                }
            };
            mem.write(addr & !3, b.map_lanes(|v| W { v: (v.v & width) << sh, t: v.t }), mask);
        }
        Instr::OpImm { op, rd, imm, .. } => {
            rd_write(regs, rd, a.map_lanes(|a| W { v: op.eval(a.v, imm as u32), t: a.t }));
        }
        Instr::Op { op, rd, .. } => {
            rd_write(regs, rd, a.zip_lanes(b, |a, b| W { v: op.eval(a.v, b.v), t: a.t || b.t }));
            tainted = match class {
                OpClass::Shift { .. } => b.taint_lanes(),
                OpClass::Div { .. } => a.taint_lanes() | b.taint_lanes(),
                _ => 0,
            };
        }
        Instr::Fence => {}
        Instr::Ecall | Instr::Ebreak => *fault = Some(Fault::Env { pc }),
    }
    Some(Exec { next_pc, class, tainted })
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
    use parfait_riscv::decode::decode;
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

    /// Execute `word` at 0x100 the way a single-world core does.
    fn run(word: u32, regs: &mut [W; 32], mem: &mut FlatMem) -> (Exec, LeakLog, Option<Fault>) {
        let mut leaks = LeakLog::default();
        let mut fault = None;
        let e = match decode(word) {
            Err(_) => {
                fault = Some(Fault::Illegal { pc: 0x100, word });
                Exec { next_pc: 0x100, class: OpClass::Alu, tainted: 0 }
            }
            Ok(i) => execute(i, 0x100, None, regs, mem, 7, &mut leaks, &mut fault, |_| 1)
                .expect("one lane always agrees"),
        };
        (e, leaks, fault)
    }

    fn exec1(word: u32, regs: &mut [W; 32]) -> (Exec, Vec<LeakEvent>, Option<Fault>) {
        let mut mem = FlatMem { data: vec![W::default(); 64] };
        let (e, leaks, fault) = run(word, regs, &mut mem);
        (e, leaks.lane(0).to_vec(), fault)
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
        assert_eq!(e.class, OpClass::Div { dividend: 100 });
        assert_eq!(e.tainted, 1);
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
        run(word, &mut regs, &mut mem);
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
