//! An Ibex-like 2-stage pipelined RV32IM core model.
//!
//! Timing model (cycle-accurate at the granularity the verification
//! cares about):
//!
//! * 1 instruction per cycle in steady state (IF overlaps ID/EX);
//! * loads and stores occupy the EX stage for 2 cycles;
//! * taken branches and jumps squash the fetched instruction (2 cycles);
//! * multiply is single-cycle (the paper replaces Ibex's multiplier with
//!   a full-width combinational multiply, §7.1);
//! * divide is **data-dependent**: `3 + bitlen(dividend)` cycles,
//!   modeling an iterative divider. This is the hardware-level
//!   variable-latency instruction of §7.2 that verification must catch
//!   when it executes on secret data.

use std::any::Any;
use std::sync::Arc;

use parfait_riscv::decode::{decode, DecodeError};
use parfait_riscv::isa::Instr;
use parfait_riscv::predecode::DecodeCache;
use parfait_rtl::{Pair, Word, W};

use crate::contract::{Clause, Latency, LatencyDep, LeakageContract};
use crate::datapath::{
    execute, instr_dest, instr_sources, lane_regs, same_cache, zip_regs, Core, Exec, Fault,
    LeakEvent, LeakKind, LeakLog, MemIf, OpClass, SeededFault, Step,
};

/// Ibex's exported leakage contract (DESIGN.md §15): the declarative
/// observable model this core's tick loop *derives* its cycle charging
/// from, and which the contract battery checks it against.
///
/// The divider clause is deliberately operand-dependent — the declared
/// analogue of the retained variable-latency divider (§7.2) — and its
/// `leak_on_tainted` is `None`: Ibex performs no taint check on that
/// path, so secret-dependent division is caught by the dual-world FPS
/// timing comparison, not by a self-reported event.
pub fn contract() -> &'static LeakageContract {
    const FIXED1: Clause =
        Clause { latency: Latency::Fixed(1), addr_trace: false, leak_on_tainted: None };
    static CONTRACT: LeakageContract = LeakageContract {
        core: "Ibex",
        revision: 1,
        // IF overlaps EX: no per-instruction overhead in steady state.
        overhead: 0,
        // A taken branch or jump squashes one fetched instruction.
        redirect_penalty: 1,
        clauses: [
            // alu
            FIXED1,
            // shift: full barrel shifter.
            FIXED1,
            // mul: the paper's full-width single-cycle multiplier (§7.1).
            FIXED1,
            // div: iterative, dividend-bit dependent, no taint check.
            Clause {
                latency: Latency::Operand { base: 3, dep: LatencyDep::DividendBits },
                addr_trace: false,
                leak_on_tainted: None,
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

/// The 2-stage core, over the word type of the world(s) it simulates
/// (see [`Word`]); `IbexCore` is the single-world core.
#[derive(Clone)]
pub struct IbexCore<P: Word = W> {
    regs: [P; 32],
    /// Fetch PC (next instruction address to fetch).
    fetch_pc: u32,
    /// Instruction sitting in ID/EX: (word, its pc).
    id_ex: Option<(u32, u32)>,
    /// Remaining stall cycles of a multi-cycle operation.
    busy: u32,
    /// Instruction completing when `busy` hits 0: (word, pc).
    pending: Option<(u32, u32)>,
    cycles: u64,
    retired: u64,
    last_retired: Option<(u32, u32)>,
    leaks: LeakLog,
    fault: Option<Fault>,
    /// Seeded micro-architectural bug (mutation testing only).
    seeded: Option<SeededFault>,
    /// With `StaleForwarding` seeded: the register the previous executed
    /// instruction wrote and its value *before* that write.
    stale: Option<(usize, P)>,
    /// Pre-decoded ROM image (shared across snapshots); `None` runs the
    /// uncached fetch + decode path everywhere.
    cache: Option<Arc<DecodeCache>>,
    /// Decode latch: the cache's decoded form of the word the last
    /// fetch served, carried alongside `id_ex` so the exec stage does
    /// not repeat the cache lookup. `None` whenever the word came off
    /// the bus (exec then decodes it live).
    fetched: Option<Result<Instr, DecodeError>>,
    cache_hits: u64,
    cache_misses: u64,
}

impl IbexCore {
    /// A core reset to fetch from `boot_pc`.
    pub fn new(boot_pc: u32) -> IbexCore {
        IbexCore::with_fault(boot_pc, None)
    }

    /// A core with a deliberately seeded bug (see [`SeededFault`]);
    /// `None` is exactly [`IbexCore::new`]. The seed survives `reset`,
    /// like a silicon bug survives a power cycle.
    pub fn with_fault(boot_pc: u32, seeded: Option<SeededFault>) -> IbexCore {
        IbexCore::fresh(boot_pc, seeded)
    }
}

impl IbexCore<Pair> {
    /// Two worlds' cores as one product core, or `None` when any single
    /// state differs. Decode-cache lookups the two made so far are
    /// summed into the product's counters.
    pub fn zip(real: &IbexCore, ideal: &IbexCore) -> Option<IbexCore<Pair>> {
        let single = |c: &IbexCore| {
            (
                c.fetch_pc,
                c.id_ex,
                c.busy,
                c.pending,
                c.cycles,
                c.retired,
                c.last_retired,
                c.fault.clone(),
                c.seeded,
                c.stale.map(|(i, _)| i),
                c.fetched,
            )
        };
        if single(real) != single(ideal) || !same_cache(&real.cache, &ideal.cache) {
            return None;
        }
        Some(IbexCore {
            regs: zip_regs(&real.regs, &ideal.regs),
            leaks: LeakLog::zip(&real.leaks, &ideal.leaks),
            stale: real
                .stale
                .zip(ideal.stale)
                .map(|((i, r), (_, d))| (i, Pair { real: r, ideal: d })),
            cache: real.cache.clone(),
            cache_hits: real.cache_hits + ideal.cache_hits,
            cache_misses: real.cache_misses + ideal.cache_misses,
            fetch_pc: real.fetch_pc,
            id_ex: real.id_ex,
            busy: real.busy,
            pending: real.pending,
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
    pub fn unzip(&self) -> (IbexCore, IbexCore) {
        let (real_leaks, ideal_leaks) = self.leaks.unzip();
        let half = |lane: usize, leaks: LeakLog| IbexCore {
            regs: lane_regs(&self.regs, lane),
            leaks,
            stale: self.stale.map(|(i, p)| (i, p.lane(lane))),
            cache: self.cache.clone(),
            cache_hits: if lane == 0 { self.cache_hits } else { 0 },
            cache_misses: if lane == 0 { self.cache_misses } else { 0 },
            fetch_pc: self.fetch_pc,
            id_ex: self.id_ex,
            busy: self.busy,
            pending: self.pending,
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

impl<P: Word> IbexCore<P> {
    fn fresh(boot_pc: u32, seeded: Option<SeededFault>) -> Self {
        IbexCore {
            regs: [P::default(); 32],
            fetch_pc: boot_pc,
            id_ex: None,
            busy: 0,
            pending: None,
            cycles: 0,
            retired: 0,
            last_retired: None,
            leaks: LeakLog::default(),
            fault: None,
            seeded,
            stale: None,
            cache: None,
            fetched: None,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Latency charged in the EX stage beyond the issuing cycle —
    /// derived from the exported [`contract`] (total occupancy minus
    /// the issuing cycle), so the declared model and the tick loop
    /// cannot drift apart. Seeded contract-violation faults add cycles
    /// *on top of* the declaration; the contract battery measures the
    /// discrepancy.
    fn extra_latency(seeded: Option<SeededFault>, class: &OpClass) -> u32 {
        let mut extra = contract().cycles(class) - 1;
        match (seeded, class) {
            (Some(SeededFault::ContractLatencyUnderstated), OpClass::Div { .. }) => extra += 3,
            (Some(SeededFault::ContractHiddenOperandDep), OpClass::Shift { amount, .. }) => {
                extra += amount / 8;
            }
            _ => {}
        }
        extra
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

    /// The EX stage of the instruction in ID/EX, the one stage whose
    /// decisions read data: decide its control (refusing the whole cycle,
    /// before changing anything, if the lanes disagree), then execute it.
    /// The decode comes from fetch's latch when the cache served the
    /// word.
    fn execute_stage(&mut self, word: u32, ipc: u32, mem: &mut dyn MemIf<P>) -> Step {
        let stale_seeded = self.seeded == Some(SeededFault::StaleForwarding);
        let instr = match self.fetched.unwrap_or_else(|| decode(word)) {
            Ok(i) => i,
            Err(_) => {
                self.cycles += 1;
                self.last_retired = None;
                self.id_ex = None;
                self.fetched = None;
                if stale_seeded {
                    self.stale = None;
                }
                self.fault = Some(Fault::Illegal { pc: ipc, word });
                return Step::Ran(None);
            }
        };
        // Seeded forwarding bug: if this instruction reads the register
        // the previous one wrote, the EX stage sees the pre-write
        // (stale) value instead of the forwarded one.
        let substituted = self.stale.filter(|&(idx, _)| {
            let (s1, s2) = instr_sources(&instr);
            stale_seeded && [s1, s2].iter().flatten().any(|r| r.0 as usize == idx)
        });
        // What the previous-write record becomes, read before the write.
        let stale = stale_seeded.then(|| {
            instr_dest(&instr).map(|r| {
                let d = r.0 as usize;
                (d, substituted.filter(|&(idx, _)| idx == d).map_or(self.regs[d], |(_, old)| old))
            })
        });
        let seeded = self.seeded;
        let Some(Exec { next_pc, class, .. }) = execute(
            instr,
            ipc,
            substituted,
            &mut self.regs,
            mem,
            self.cycles + 1,
            &mut self.leaks,
            &mut self.fault,
            |class| Self::extra_latency(seeded, class),
        ) else {
            return Step::Refused;
        };
        self.cycles += 1;
        self.last_retired = None;
        self.id_ex = None;
        self.fetched = None;
        if let Some(stale) = stale {
            self.stale = stale;
        }
        if self.fault.is_some() {
            return Step::Ran(self.last_retired);
        }
        let extra = Self::extra_latency(seeded, &class);
        let redirect = next_pc != ipc.wrapping_add(4);
        if redirect {
            // Squash the would-be fetched instruction.
            self.fetch_pc = next_pc;
            self.retired += 1;
            self.last_retired = Some((word, ipc));
            debug_assert_eq!(extra, 0, "control ops are single-cycle");
        } else if extra > 0 {
            self.busy = extra;
            self.pending = Some((word, ipc));
            // The pipeline stalls; fetch resumes when busy ends.
        } else {
            self.retired += 1;
            self.last_retired = Some((word, ipc));
            // Overlapped fetch of the next instruction.
            let w = self.fetch(mem, self.fetch_pc);
            self.id_ex = Some((w, self.fetch_pc));
            self.fetch_pc = self.fetch_pc.wrapping_add(4);
        }
        Step::Ran(self.last_retired)
    }
}

impl<P: Word> Core<P> for IbexCore<P> {
    fn clone_box(&self) -> Box<dyn Core<P>> {
        Box::new(self.clone())
    }

    fn step(&mut self, mem: &mut dyn MemIf<P>) -> Step {
        if let (None, 0, Some((word, ipc))) = (&self.fault, self.busy, self.id_ex) {
            return self.execute_stage(word, ipc, mem);
        }
        self.cycles += 1;
        self.last_retired = None;
        if self.fault.is_some() {
            return Step::Ran(self.last_retired);
        }
        if self.busy > 0 {
            // Multi-cycle operation in progress.
            self.busy -= 1;
            if self.busy == 0 {
                self.last_retired = self.pending.take();
                self.retired += 1;
                // Refill the pipeline in the same cycle the op completes.
                let word = self.fetch(mem, self.fetch_pc);
                self.id_ex = Some((word, self.fetch_pc));
                self.fetch_pc = self.fetch_pc.wrapping_add(4);
            }
            return Step::Ran(self.last_retired);
        }
        // Bubble: fetch only.
        let word = self.fetch(mem, self.fetch_pc);
        self.id_ex = Some((word, self.fetch_pc));
        self.fetch_pc = self.fetch_pc.wrapping_add(4);
        Step::Ran(self.last_retired)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn regs(&self) -> &[P; 32] {
        &self.regs
    }

    fn pc(&self) -> u32 {
        self.fetch_pc
    }

    fn instr_in_decode(&self) -> Option<(u32, u32)> {
        self.id_ex
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
        *self = IbexCore::fresh(pc, self.seeded);
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

    #[test]
    fn straightline_is_one_per_cycle() {
        // addi x5, x0, 1 ; addi x6, x0, 2 ; addi x7, x5, 3 (no hazards in
        // this 2-stage model: EX completes before the next decode).
        let mut mem = ProgMem::from_asm(
            "
            addi t0, zero, 1
            addi t1, zero, 2
            addi t2, t0, 3
            nop
            nop
            ",
        );
        let mut c = IbexCore::new(0);
        // Cycle 1 is the initial fetch bubble; then 1 instr/cycle.
        for _ in 0..4 {
            c.step(&mut mem);
        }
        assert_eq!(c.retired(), 3);
        assert_eq!(c.regs()[5].v, 1);
        assert_eq!(c.regs()[6].v, 2);
        assert_eq!(c.regs()[7].v, 4);
    }

    #[test]
    fn taken_branch_costs_extra_cycle() {
        let mut mem = ProgMem::from_asm(
            "
            beq zero, zero, target
            addi t0, zero, 99
            target:
            addi t1, zero, 1
            nop
            nop
            ",
        );
        let mut c = IbexCore::new(0);
        // bubble(1) + branch(1) + bubble(1) + addi(1) = 4 cycles, 2 retired
        for _ in 0..4 {
            c.step(&mut mem);
        }
        assert_eq!(c.retired(), 2);
        assert_eq!(c.regs()[5].v, 0, "skipped instruction must not execute");
        assert_eq!(c.regs()[6].v, 1);
    }

    #[test]
    fn load_takes_two_cycles() {
        let mut mem = ProgMem::from_asm(
            "
            lw t0, 16(zero)
            addi t1, zero, 1
            nop
            nop
            ",
        );
        mem.set_word(16, W::pub32(0x1234));
        let mut c = IbexCore::new(0);
        // bubble(1) + lw issue(1) + lw complete(1) + addi(1)
        for _ in 0..4 {
            c.step(&mut mem);
        }
        assert_eq!(c.retired(), 2);
        assert_eq!(c.regs()[5].v, 0x1234);
        assert_eq!(c.regs()[6].v, 1);
    }

    #[test]
    fn divider_latency_is_data_dependent() {
        let run = |load_t0: &str| -> u64 {
            let mut mem = ProgMem::from_asm(&format!(
                "
                {load_t0}
                addi t1, zero, 3
                divu t2, t0, t1
                nop
                nop
                nop
                "
            ));
            let mut c = IbexCore::new(0);
            let before_retired = 3; // li, li, divu
            let mut cycles = 0;
            while c.retired() < before_retired {
                c.step(&mut mem);
                cycles += 1;
                assert!(cycles < 200);
            }
            cycles
        };
        let small = run("addi t0, zero, 1");
        let large = run("lui t0, 0xfffff");
        assert!(large > small, "divider latency must depend on the dividend: {small} vs {large}");
    }

    #[test]
    fn fault_freezes_core() {
        let mut mem = ProgMem::from_asm("ebreak\nnop\nnop");
        let mut c = IbexCore::new(0);
        for _ in 0..5 {
            c.step(&mut mem);
        }
        assert!(matches!(c.fault(), Some(Fault::Env { .. })));
        assert_eq!(c.retired(), 0);
    }
}

#[cfg(test)]
mod timing_tests {
    use super::*;
    use crate::datapath::tests_support::ProgMem;

    fn cycles_to_retire(src: &str, n: u64) -> u64 {
        let mut mem = ProgMem::from_asm(src);
        let mut c = IbexCore::new(0);
        let mut cycles = 0;
        while c.retired() < n {
            c.step(&mut mem);
            cycles += 1;
            assert!(cycles < 100_000);
        }
        cycles
    }

    #[test]
    fn store_takes_two_cycles() {
        // bubble + sw issue + sw complete + addi = 4 cycles for 2 instrs.
        let c = cycles_to_retire("sw zero, 16(zero)\naddi t0, zero, 1\nnop\nnop", 2);
        assert_eq!(c, 4);
    }

    #[test]
    fn jal_squashes_fetch() {
        // bubble(1) + jal(1) + bubble(1) + addi(1).
        let c = cycles_to_retire(
            "
            jal zero, target
            addi t0, zero, 99
            target:
            addi t1, zero, 1
            nop
            nop
            ",
            2,
        );
        assert_eq!(c, 4);
    }

    #[test]
    fn not_taken_branch_is_single_cycle() {
        // bubble + bne(not taken) + addi = 3 cycles for 2 instrs.
        let c = cycles_to_retire(
            "
            bne zero, zero, away
            addi t0, zero, 1
            away:
            nop
            nop
            ",
            2,
        );
        assert_eq!(c, 3);
    }

    #[test]
    fn multiply_is_single_cycle() {
        // The paper's modified Ibex: full-width single-cycle multiplier.
        let mul = cycles_to_retire("mul t0, t1, t2\naddi t3, zero, 1\nnop\nnop", 2);
        let add = cycles_to_retire("add t0, t1, t2\naddi t3, zero, 1\nnop\nnop", 2);
        assert_eq!(mul, add);
    }

    #[test]
    fn divide_latency_exceeds_multiply() {
        let div =
            cycles_to_retire("addi t1, zero, 100\naddi t2, zero, 3\ndivu t0, t1, t2\nnop\nnop", 3);
        let mul =
            cycles_to_retire("addi t1, zero, 100\naddi t2, zero, 3\nmul t0, t1, t2\nnop\nnop", 3);
        assert!(div > mul, "div {div} vs mul {mul}");
    }

    #[test]
    fn fetch_pc_tracks_decode_stage() {
        let mut mem = ProgMem::from_asm("addi t0, zero, 1\naddi t1, zero, 2\nnop\nnop");
        let mut c = IbexCore::new(0);
        c.step(&mut mem); // fetch bubble: first instr now in decode
        let (word, pc) = c.instr_in_decode().unwrap();
        assert_eq!(pc, 0);
        assert_eq!(word & 0x7F, 0x13); // an OP-IMM
    }
}
