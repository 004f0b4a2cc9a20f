//! A PicoRV32-like size-optimized multi-cycle RV32IM core model.
//!
//! Every instruction pays a 2-cycle fetch, a 1-cycle decode, and an
//! execute latency:
//!
//! * ALU / branch / jump: 1 cycle;
//! * load / store: 2 cycles;
//! * shift: serial shifter, `1 + ceil(amount / 4)` cycles (like
//!   PicoRV32's small dual-bit shifter, latency depends on the amount);
//! * multiply: fixed 32-cycle iterative multiplier (data-independent);
//! * divide: iterative, `2 + bitlen(dividend)` cycles (data-dependent).
//!
//! The result is ~4–7 cycles per instruction — substantially slower than
//! the Ibex-like pipeline, which is exactly the relationship the paper's
//! Table 4 relies on (apps take more cycles on the PicoRV32, but each
//! SoC cycle is cheaper to simulate).

use std::any::Any;
use std::sync::Arc;

use parfait_riscv::decode::{decode, DecodeError};
use parfait_riscv::isa::Instr;
use parfait_riscv::predecode::DecodeCache;
use parfait_rtl::{Pair, Word, W};

use crate::contract::{Clause, InstrClass, Latency, LatencyDep, LeakageContract};
use crate::datapath::{
    execute, lane_regs, same_cache, zip_regs, Core, Exec, Fault, LeakEvent, LeakKind, LeakLog,
    MemIf, OpClass, SeededFault, Step,
};

/// PicoRV32's exported leakage contract (DESIGN.md §15): the
/// declarative observable model this core's execute-latency table is
/// *derived* from, and which the contract battery checks it against.
///
/// Unlike Ibex, the variable-latency units here (serial shifter,
/// iterative divider) carry a taint check, so their clauses declare a
/// self-reported [`LeakKind::VarLatencySecret`] on tainted operands.
pub fn contract() -> &'static LeakageContract {
    const FIXED1: Clause =
        Clause { latency: Latency::Fixed(1), addr_trace: false, leak_on_tainted: None };
    static CONTRACT: LeakageContract = LeakageContract {
        core: "PicoRV32",
        revision: 1,
        // Every instruction refetches: 2 fetch cycles of overhead.
        overhead: 2,
        // No pipeline to squash, so redirects cost nothing extra.
        redirect_penalty: 0,
        clauses: [
            // alu
            FIXED1,
            // shift: serial dual-bit shifter, 4 bits per cycle.
            Clause {
                latency: Latency::Operand {
                    base: 1,
                    dep: LatencyDep::ShiftChunks { bits_per_cycle: 4 },
                },
                addr_trace: false,
                leak_on_tainted: Some(LeakKind::VarLatencySecret),
            },
            // mul: fixed 32-cycle iterative multiplier.
            Clause { latency: Latency::Fixed(32), addr_trace: false, leak_on_tainted: None },
            // div: iterative, dividend-bit dependent, taint-checked.
            Clause {
                latency: Latency::Operand { base: 2, dep: LatencyDep::DividendBits },
                addr_trace: false,
                leak_on_tainted: Some(LeakKind::VarLatencySecret),
            },
            // load
            Clause {
                latency: Latency::Fixed(2),
                addr_trace: true,
                leak_on_tainted: Some(LeakKind::AddrSecret),
            },
            // store
            Clause {
                latency: Latency::Fixed(2),
                addr_trace: true,
                leak_on_tainted: Some(LeakKind::AddrSecret),
            },
            // branch
            Clause {
                latency: Latency::Fixed(1),
                addr_trace: false,
                leak_on_tainted: Some(LeakKind::BranchOnSecret),
            },
            // jump
            Clause {
                latency: Latency::Fixed(1),
                addr_trace: false,
                leak_on_tainted: Some(LeakKind::JumpTargetSecret),
            },
            // fence
            FIXED1,
        ],
    };
    &CONTRACT
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// First fetch cycle.
    Fetch1,
    /// Second fetch cycle; the word arrives.
    Fetch2,
    /// Decode cycle for the fetched (word, pc).
    Decode(u32, u32),
    /// Executing (word, pc) with `remaining` cycles to go.
    Execute(u32, u32, u32),
}

/// The multi-cycle core, over the word type of the world(s) it
/// simulates (see [`Word`]); `PicoCore` is the single-world core.
#[derive(Clone)]
pub struct PicoCore<P: Word = W> {
    regs: [P; 32],
    pc: u32,
    stage: Stage,
    cycles: u64,
    retired: u64,
    last_retired: Option<(u32, u32)>,
    leaks: LeakLog,
    fault: Option<Fault>,
    /// Seeded micro-architectural bug (mutation testing only).
    seeded: Option<SeededFault>,
    /// Pre-decoded ROM image (shared across snapshots); `None` runs the
    /// uncached fetch + decode path everywhere.
    cache: Option<Arc<DecodeCache>>,
    /// Decode latch: the cache's decoded form of the word the last
    /// fetch served, carried through the Decode stage so exec does not
    /// repeat the cache lookup. `None` whenever the word came off the
    /// bus (exec then decodes it live).
    fetched: Option<Result<Instr, DecodeError>>,
    cache_hits: u64,
    cache_misses: u64,
}

impl PicoCore {
    /// A core reset to fetch from `boot_pc`.
    pub fn new(boot_pc: u32) -> PicoCore {
        PicoCore::with_fault(boot_pc, None)
    }

    /// A core with a deliberately seeded bug (see [`SeededFault`]);
    /// `None` is exactly [`PicoCore::new`]. The seed survives `reset`,
    /// like a silicon bug survives a power cycle.
    pub fn with_fault(boot_pc: u32, seeded: Option<SeededFault>) -> PicoCore {
        PicoCore::fresh(boot_pc, seeded)
    }
}

impl PicoCore<Pair> {
    /// Two worlds' cores as one product core, or `None` when any single
    /// state differs. Decode-cache lookups the two made so far are
    /// summed into the product's counters.
    pub fn zip(real: &PicoCore, ideal: &PicoCore) -> Option<PicoCore<Pair>> {
        let single = |c: &PicoCore| {
            (
                c.pc,
                c.stage,
                c.cycles,
                c.retired,
                c.last_retired,
                c.fault.clone(),
                c.seeded,
                c.fetched,
            )
        };
        if single(real) != single(ideal) || !same_cache(&real.cache, &ideal.cache) {
            return None;
        }
        Some(PicoCore {
            regs: zip_regs(&real.regs, &ideal.regs),
            leaks: LeakLog::zip(&real.leaks, &ideal.leaks),
            cache: real.cache.clone(),
            cache_hits: real.cache_hits + ideal.cache_hits,
            cache_misses: real.cache_misses + ideal.cache_misses,
            pc: real.pc,
            stage: real.stage,
            cycles: real.cycles,
            retired: real.retired,
            last_retired: real.last_retired,
            fault: real.fault.clone(),
            seeded: real.seeded,
            fetched: real.fetched,
        })
    }

    /// The (real, ideal) cores of this product core. The product's
    /// decode-cache counters go to the real core.
    pub fn unzip(&self) -> (PicoCore, PicoCore) {
        let (real_leaks, ideal_leaks) = self.leaks.unzip();
        let half = |lane: usize, leaks: LeakLog| PicoCore {
            regs: lane_regs(&self.regs, lane),
            leaks,
            cache: self.cache.clone(),
            cache_hits: if lane == 0 { self.cache_hits } else { 0 },
            cache_misses: if lane == 0 { self.cache_misses } else { 0 },
            pc: self.pc,
            stage: self.stage,
            cycles: self.cycles,
            retired: self.retired,
            last_retired: self.last_retired,
            fault: self.fault.clone(),
            seeded: self.seeded,
            fetched: self.fetched,
        };
        (half(0, real_leaks), half(1, ideal_leaks))
    }
}

impl<P: Word> PicoCore<P> {
    fn fresh(boot_pc: u32, seeded: Option<SeededFault>) -> Self {
        PicoCore {
            regs: [P::default(); 32],
            pc: boot_pc,
            stage: Stage::Fetch1,
            cycles: 0,
            retired: 0,
            last_retired: None,
            leaks: LeakLog::default(),
            fault: None,
            seeded,
            cache: None,
            fetched: None,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Instruction fetch: the pre-decoded cache serves covered pcs
    /// without touching the bus; everything else (no cache, pc outside
    /// the image, misaligned) takes the bus path bit-for-bit. A cache
    /// hit also latches the entry's decoded form for the exec stage
    /// (the entry pairs the word with its decode, so the latch is the
    /// decode of exactly the word returned here).
    #[inline]
    fn fetch(&mut self, mem: &mut dyn MemIf<P>, pc: u32) -> u32 {
        if let Some(c) = &self.cache {
            if let Some(&(word, decoded)) = c.entry(pc) {
                self.cache_hits += 1;
                self.fetched = Some(decoded);
                return word;
            }
            self.cache_misses += 1;
        }
        self.fetched = None;
        mem.fetch(pc)
    }

    /// The Decode stage's first execute cycle, the one cycle whose
    /// decisions read data: decide the instruction's control (refusing
    /// the whole cycle, before changing anything, if the lanes
    /// disagree), execute it, then burn the remaining latency in
    /// Execute. Memory side effects happen exactly once. The decode
    /// comes from fetch's latch when the cache served the word.
    fn execute_stage(&mut self, word: u32, ipc: u32, mem: &mut dyn MemIf<P>) -> Step {
        let instr = match self.fetched.unwrap_or_else(|| decode(word)) {
            Ok(i) => i,
            Err(_) => {
                self.cycles += 1;
                self.last_retired = None;
                self.fetched = None;
                self.fault = Some(Fault::Illegal { pc: ipc, word });
                return Step::Ran(None);
            }
        };
        let seeded = self.seeded;
        let Some(Exec { next_pc, class, tainted }) = execute(
            instr,
            ipc,
            None,
            &mut self.regs,
            mem,
            self.cycles + 1,
            &mut self.leaks,
            &mut self.fault,
            |class| Self::latency(seeded, class),
        ) else {
            return Step::Refused;
        };
        self.cycles += 1;
        self.last_retired = None;
        self.fetched = None;
        if self.fault.is_some() {
            return Step::Ran(self.last_retired);
        }
        self.latency_leaks(&class, tainted, ipc);
        self.pc = next_pc;
        // This is the first execute cycle.
        match Self::latency(seeded, &class) - 1 {
            0 => {
                self.retired += 1;
                self.last_retired = Some((word, ipc));
                self.stage = Stage::Fetch1;
            }
            remaining => self.stage = Stage::Execute(word, ipc, remaining),
        }
        Step::Ran(self.last_retired)
    }

    /// Execute-stage latency (total cycles spent in Execute) — derived
    /// from the exported [`contract`]. A seeded `MulEarlyExit` bypasses
    /// the declared latency; the contract battery measures the
    /// discrepancy.
    fn latency(seeded: Option<SeededFault>, class: &OpClass) -> u32 {
        if let (Some(SeededFault::MulEarlyExit), OpClass::Mul { a, b }) = (seeded, class) {
            // The early-exit iterative multiplier the paper's modified
            // core removed (§7.1): cycles track the smaller operand's
            // bit-length, and the (buggy) latency path performs no
            // taint check — only the dual-world timing comparison and
            // the contract battery's operand sweep can observe it.
            let bits = (32 - a.leading_zeros()).min(32 - b.leading_zeros());
            return 2 + bits;
        }
        contract().cycles(class)
    }

    /// Raise the contract's declared leak in each lane whose
    /// variable-latency operand is `tainted`. A seeded
    /// `ContractTaintSilent` drops the divider's check.
    fn latency_leaks(&mut self, class: &OpClass, tainted: u8, pc: u32) {
        let instr_class = InstrClass::of(class);
        let silenced =
            self.seeded == Some(SeededFault::ContractTaintSilent) && instr_class == InstrClass::Div;
        if tainted != 0 && !silenced {
            if let Some(kind) = contract().clause(instr_class).leak_on_tainted {
                let event = LeakEvent { cycle: self.cycles, pc, kind, class: instr_class };
                self.leaks.record(tainted, event);
            }
        }
    }
}

impl<P: Word> Core<P> for PicoCore<P> {
    fn clone_box(&self) -> Box<dyn Core<P>> {
        Box::new(self.clone())
    }

    fn step(&mut self, mem: &mut dyn MemIf<P>) -> Step {
        if let (None, Stage::Decode(word, ipc)) = (&self.fault, self.stage) {
            return self.execute_stage(word, ipc, mem);
        }
        self.cycles += 1;
        self.last_retired = None;
        if self.fault.is_some() {
            return Step::Ran(self.last_retired);
        }
        match self.stage {
            Stage::Fetch1 => {
                self.stage = Stage::Fetch2;
            }
            Stage::Fetch2 => {
                let word = self.fetch(mem, self.pc);
                self.stage = Stage::Decode(word, self.pc);
            }
            Stage::Decode(..) => unreachable!("the execute stage handles Decode"),
            Stage::Execute(word, ipc, ref mut remaining) => {
                *remaining -= 1;
                if *remaining == 0 {
                    self.retired += 1;
                    self.last_retired = Some((word, ipc));
                    self.stage = Stage::Fetch1;
                }
            }
        }
        Step::Ran(self.last_retired)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn regs(&self) -> &[P; 32] {
        &self.regs
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn instr_in_decode(&self) -> Option<(u32, u32)> {
        match self.stage {
            Stage::Decode(w, p) | Stage::Execute(w, p, _) => Some((w, p)),
            _ => None,
        }
    }

    fn last_retired(&self) -> Option<(u32, u32)> {
        self.last_retired
    }

    fn retired(&self) -> u64 {
        self.retired
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn leaks(&self) -> &[LeakEvent] {
        self.leaks.lane(0)
    }

    fn fault(&self) -> Option<&Fault> {
        self.fault.as_ref()
    }

    fn reset(&mut self, pc: u32) {
        // The cache (immutable, image-keyed) and its lifetime stats
        // survive a power cycle, like the ROM itself.
        let cache = self.cache.take();
        let (hits, misses) = (self.cache_hits, self.cache_misses);
        *self = PicoCore::fresh(pc, self.seeded);
        self.cache = cache;
        self.cache_hits = hits;
        self.cache_misses = misses;
    }

    fn attach_decode_cache(&mut self, cache: Arc<DecodeCache>) {
        self.cache = Some(cache);
    }

    fn take_decode_stats(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.cache_hits), std::mem::take(&mut self.cache_misses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::tests_support::ProgMem;
    use crate::ibex::IbexCore;

    fn run_until_retired(c: &mut dyn Core, mem: &mut ProgMem, n: u64, max: u64) -> u64 {
        let mut cycles = 0;
        while c.retired() < n {
            c.step(mem);
            cycles += 1;
            assert!(cycles < max, "did not retire {n} instructions in {max} cycles");
        }
        cycles
    }

    #[test]
    fn executes_programs_correctly() {
        let mut mem = ProgMem::from_asm(
            "
            addi t0, zero, 10
            addi t1, zero, 0
            loop:
            add t1, t1, t0
            addi t0, t0, -1
            bnez t0, loop
            nop
            nop
            ",
        );
        let mut c = PicoCore::new(0);
        run_until_retired(&mut c, &mut mem, 2 + 3 * 10, 1000);
        assert_eq!(c.regs()[6].v, 55);
    }

    #[test]
    fn slower_than_ibex() {
        let src = "
            addi t0, zero, 50
            loop:
            addi t0, t0, -1
            bnez t0, loop
            nop
            nop
        ";
        let mut mem_a = ProgMem::from_asm(src);
        let mut mem_b = ProgMem::from_asm(src);
        let mut ibex = IbexCore::new(0);
        let mut pico = PicoCore::new(0);
        let n = 1 + 2 * 50;
        let ci = run_until_retired(&mut ibex, &mut mem_a, n, 100_000);
        let cp = run_until_retired(&mut pico, &mut mem_b, n, 100_000);
        assert!(cp > 2 * ci, "pico ({cp}) should be much slower than ibex ({ci})");
    }

    #[test]
    fn serial_shift_latency_depends_on_amount() {
        let run = |amt: u32| {
            let mut mem = ProgMem::from_asm(&format!(
                "
                addi t0, zero, 1
                addi t1, zero, {amt}
                sll t2, t0, t1
                nop
                nop
                "
            ));
            let mut c = PicoCore::new(0);
            run_until_retired(&mut c, &mut mem, 3, 1000)
        };
        assert!(run(31) > run(1));
    }

    #[test]
    fn shift_by_tainted_amount_is_flagged() {
        let mut mem = ProgMem::from_asm(
            "
            addi t0, zero, 1
            sll t2, t0, t1
            nop
            nop
            ",
        );
        let mut c = PicoCore::new(0);
        c.regs[6] = W::secret(13);
        run_until_retired(&mut c, &mut mem, 2, 1000);
        assert!(c.leaks().iter().any(|l| l.kind == LeakKind::VarLatencySecret));
    }

    #[test]
    fn mul_latency_is_fixed() {
        let run = |a: u32, b: u32| {
            let mut mem = ProgMem::from_asm(&format!(
                "
                addi t0, zero, {a}
                addi t1, zero, {b}
                mul t2, t0, t1
                nop
                nop
                "
            ));
            let mut c = PicoCore::new(0);
            run_until_retired(&mut c, &mut mem, 3, 1000)
        };
        assert_eq!(run(0, 0), run(2047, 2047), "multiplier must be constant-latency");
    }

    #[test]
    fn matches_riscette_semantics() {
        // The cycle-accurate core and the ISA-level machine must compute
        // the same architectural results.
        let src = "
            addi t0, zero, 37
            addi t1, zero, 11
            mul t2, t0, t1
            divu t3, t2, t1
            sub t4, t2, t0
            slli t5, t1, 3
            sltu t6, t0, t1
            nop
            nop
        ";
        let mut mem = ProgMem::from_asm(src);
        let mut c = PicoCore::new(0);
        run_until_retired(&mut c, &mut mem, 7, 10_000);
        let prog = parfait_riscv::asm::assemble(src).unwrap();
        let mut m = parfait_riscv::machine::Machine::with_program(&prog);
        for _ in 0..7 {
            m.step().unwrap();
        }
        for i in 0..32 {
            if i == 2 {
                continue; // Machine::with_program pre-initializes sp.
            }
            assert_eq!(c.regs()[i].v, m.regs[i], "x{i}");
        }
    }
}

#[cfg(test)]
mod timing_tests {
    use super::*;
    use crate::datapath::tests_support::ProgMem;

    fn cycles_to_retire(src: &str, n: u64) -> u64 {
        let mut mem = ProgMem::from_asm(src);
        let mut c = PicoCore::new(0);
        let mut cycles = 0;
        while c.retired() < n {
            c.step(&mut mem);
            cycles += 1;
            assert!(cycles < 100_000);
        }
        cycles
    }

    #[test]
    fn alu_instruction_costs_three_cycles() {
        // fetch(2) + decode/execute(1).
        assert_eq!(cycles_to_retire("addi t0, zero, 1\nnop\nnop", 1), 3);
    }

    #[test]
    fn loads_and_stores_cost_four() {
        assert_eq!(cycles_to_retire("lw t0, 16(zero)\nnop\nnop", 1), 4);
        assert_eq!(cycles_to_retire("sw t0, 16(zero)\nnop\nnop", 1), 4);
    }

    #[test]
    fn mul_costs_a_fixed_32_cycle_execute() {
        assert_eq!(cycles_to_retire("mul t0, t1, t2\nnop\nnop", 1), 2 + 32);
    }

    #[test]
    fn branch_taken_and_not_taken_same_cost() {
        // Multi-cycle core refetches after every instruction, so branch
        // direction does not change latency (no pipeline to squash).
        let taken = cycles_to_retire("beq zero, zero, t\nnop\nt:\nnop\nnop", 1);
        let not_taken = cycles_to_retire("bne zero, zero, t\nnop\nt:\nnop\nnop", 1);
        assert_eq!(taken, not_taken);
    }

    #[test]
    fn immediate_shift_latency_is_public() {
        // slli with a constant amount: latency varies with the amount,
        // but the amount is program text (public), so this is fine.
        let s1 = cycles_to_retire("slli t0, t1, 1\nnop\nnop", 1);
        let s31 = cycles_to_retire("slli t0, t1, 31\nnop\nnop", 1);
        assert!(s31 > s1);
        let mut mem = ProgMem::from_asm("slli t0, t1, 31\nnop\nnop");
        let mut c = PicoCore::new(0);
        while c.retired() < 1 {
            c.step(&mut mem);
        }
        assert!(c.leaks().is_empty(), "constant shift amounts never leak");
    }
}
