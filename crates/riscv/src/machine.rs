//! The Riscette abstract machine: a single-steppable RV32IM interpreter.
//!
//! This is the Rust analogue of the paper's *Riscette* (§5.1): an
//! executable semantics for the assembly level of abstraction that can be
//! stepped instruction-by-instruction, which Knox2 uses for
//! assembly-circuit synchronization, and that exposes a CompCert-style
//! buffer API (`alloc` / `storebytes` / `loadbytes`) used by the
//! whole-command state machine interpretation (fig. 8).
//!
//! Memory is sparse and paged, so images can live at arbitrary addresses
//! (ROM at 0x0000_0000, RAM at 0x2000_0000, a heap for whole-command
//! buffers at 0x4000_0000, an abstract stack near 0x7FFF_0000).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::asm::Program;
use crate::isa::{AluOp, Instr, Reg};
use crate::uop::{Code, Text, Uop};

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u32 = 1 << PAGE_BITS;

/// Multiplicative hasher for page indices. Page numbers are small,
/// dense, attacker-independent integers, so the default SipHash's
/// collision resistance buys nothing while its cost lands on every
/// page-map lookup; one xor-rotate-multiply round (the fxhash recipe)
/// spreads them across the table just as well.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Page number → index into [`Memory::pages`].
type PageMap = HashMap<u32, u32, BuildHasherDefault<PageHasher>>;

type PageBytes = [u8; PAGE_SIZE as usize];

/// One page of memory. A machine's own pages are `Owned`; after
/// [`Memory::share`] they are `Shared` with every clone, and the first
/// store into a shared page copies it into an owned one, so a clone of
/// a loaded image costs a reference count per page.
#[derive(Clone)]
enum Page {
    Owned(Box<PageBytes>),
    Shared(Arc<PageBytes>),
}

impl Page {
    fn bytes(&self) -> &PageBytes {
        match self {
            Page::Owned(b) => b,
            Page::Shared(a) => a,
        }
    }
}

/// The resolved-page shortcut has one entry per 512 MiB region of the
/// address space (address bits 31..29), so the image, data, heap and
/// stack regions of the memory map never evict each other.
const REGIONS: usize = 8;
/// No page number (they have 20 bits) matches this entry.
const NO_PAGE: u64 = u64::MAX;

/// Base of the bump-allocated heap used by [`Machine::alloc`].
pub const HEAP_BASE: u32 = 0x4000_0000;
/// Initial stack pointer used by [`Machine::setup_stack`].
pub const STACK_TOP: u32 = 0x7FFF_F000;

/// Sparse paged byte-addressable memory.
///
/// Each region of the address space remembers the page it resolved
/// last, so a repeated access to a page skips the page-map hash; word
/// and multi-byte accesses that stay within one page index the page
/// directly, and only accesses spanning a page boundary go byte by
/// byte. Unwritten memory reads as zero.
///
/// A memory may hold the decoded text of the program it was loaded
/// with ([`Machine::load_program`]); any store into that range detaches
/// it, so the table always equals what memory holds.
pub struct Memory {
    index: PageMap,
    pages: Vec<Page>,
    /// Per region: `page << 32 | slot` of the page resolved last.
    /// Relaxed atomics so `&self` loads can refresh it; every entry
    /// ever written names a page of this memory, which never moves.
    recent: [AtomicU64; REGIONS],
    text: Option<Arc<Text>>,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            index: self.index.clone(),
            pages: self.pages.clone(),
            recent: std::array::from_fn(|i| AtomicU64::new(self.recent[i].load(Relaxed))),
            text: self.text.clone(),
        }
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            index: PageMap::default(),
            pages: Vec::new(),
            recent: std::array::from_fn(|_| AtomicU64::new(NO_PAGE)),
            text: None,
        }
    }
}

impl Memory {
    /// The slot of page `page`, if it was ever written.
    #[inline]
    fn slot(&self, page: u32) -> Option<usize> {
        let recent = &self.recent[(page >> (29 - PAGE_BITS)) as usize];
        let e = recent.load(Relaxed);
        if (e >> 32) as u32 == page {
            return Some(e as u32 as usize);
        }
        let slot = *self.index.get(&page)?;
        recent.store(u64::from(page) << 32 | u64::from(slot), Relaxed);
        Some(slot as usize)
    }

    #[inline]
    fn page(&self, page: u32) -> Option<&PageBytes> {
        self.slot(page).map(|s| self.pages[s].bytes())
    }

    /// Page `page`, writable.
    #[inline(always)]
    fn page_mut(&mut self, page: u32) -> &mut PageBytes {
        let slot = match self.slot(page) {
            Some(s) if matches!(self.pages[s], Page::Owned(_)) => s,
            _ => self.own(page),
        };
        match &mut self.pages[slot] {
            Page::Owned(b) => b,
            Page::Shared(_) => unreachable!("own() made it owned"),
        }
    }

    /// The slot of page `page` made writable: a zero page on first
    /// touch, a copy of a shared page on the first store into it.
    #[cold]
    fn own(&mut self, page: u32) -> usize {
        let Some(slot) = self.slot(page) else {
            self.pages.push(Page::Owned(Box::new([0; PAGE_SIZE as usize])));
            self.index.insert(page, self.pages.len() as u32 - 1);
            return self.pages.len() - 1;
        };
        if let Page::Shared(a) = &self.pages[slot] {
            self.pages[slot] = Page::Owned(Box::new(**a));
        }
        slot
    }

    /// The text-store barrier: a store to `len` bytes at `addr` (within
    /// one page) that reaches the decoded text detaches it.
    #[inline]
    fn stored(&mut self, addr: u32, len: u32) {
        if self.text.as_ref().is_some_and(|t| t.overlaps(addr, len)) {
            self.text = None;
        }
    }

    /// Serve fetches in `text`'s range from its decoded words. The
    /// caller has just stored exactly `text`'s image there.
    fn attach_text(&mut self, text: Arc<Text>) {
        self.text = Some(text);
    }

    /// Whether this memory holds a loaded program's decoded text: no
    /// store has reached it since it was loaded.
    pub fn text_attached(&self) -> bool {
        self.text.is_some()
    }

    /// Share every page with this memory's future clones (see [`Page`]).
    pub fn share(&mut self) {
        self.pages = std::mem::take(&mut self.pages)
            .into_iter()
            .map(|p| match p {
                Page::Owned(b) => Page::Shared(Arc::from(b)),
                shared => shared,
            })
            .collect();
    }

    /// Read one byte; unwritten memory reads as zero.
    #[inline]
    pub fn load_u8(&self, addr: u32) -> u8 {
        match self.page(addr >> PAGE_BITS) {
            Some(p) => p[(addr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    #[inline(always)]
    pub fn store_u8(&mut self, addr: u32, val: u8) {
        self.stored(addr, 1);
        self.page_mut(addr >> PAGE_BITS)[(addr & (PAGE_SIZE - 1)) as usize] = val;
    }

    /// Read a little-endian 32-bit word (byte-wise; no alignment demand).
    #[inline]
    pub fn load_u32(&self, addr: u32) -> u32 {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            return match self.page(addr >> PAGE_BITS) {
                Some(p) => u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]),
                None => 0,
            };
        }
        u32::from_le_bytes([
            self.load_u8(addr),
            self.load_u8(addr.wrapping_add(1)),
            self.load_u8(addr.wrapping_add(2)),
            self.load_u8(addr.wrapping_add(3)),
        ])
    }

    /// Write a little-endian 32-bit word.
    #[inline(always)]
    pub fn store_u32(&mut self, addr: u32, val: u32) {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            self.stored(addr, 4);
            self.page_mut(addr >> PAGE_BITS)[off..off + 4].copy_from_slice(&val.to_le_bytes());
            return;
        }
        for (i, b) in val.to_le_bytes().iter().enumerate() {
            self.store_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Read `len` bytes starting at `addr`.
    pub fn load_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut addr = addr;
        let mut remaining = len;
        while remaining > 0 {
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let n = (PAGE_SIZE as usize - off).min(remaining);
            match self.page(addr >> PAGE_BITS) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            addr = addr.wrapping_add(n as u32);
            remaining -= n;
        }
        out
    }

    /// Write `bytes` starting at `addr`.
    pub fn store_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut addr = addr;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let n = (PAGE_SIZE as usize - off).min(bytes.len());
            self.stored(addr, n as u32);
            self.page_mut(addr >> PAGE_BITS)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u32);
            bytes = &bytes[n..];
        }
    }
}

/// Why an instruction step trapped instead of completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapCause {
    /// The fetched word is not a valid RV32IM instruction.
    IllegalInstruction { pc: u32, word: u32 },
    /// A load/store address was not aligned to the access width.
    MisalignedAccess { pc: u32, addr: u32 },
    /// Instruction fetch from a non-4-aligned PC.
    MisalignedFetch { pc: u32 },
}

impl std::fmt::Display for TrapCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TrapCause::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc={pc:#010x}")
            }
            TrapCause::MisalignedAccess { pc, addr } => {
                write!(f, "misaligned access to {addr:#010x} at pc={pc:#010x}")
            }
            TrapCause::MisalignedFetch { pc } => write!(f, "misaligned fetch at pc={pc:#010x}"),
        }
    }
}

impl std::error::Error for TrapCause {}

/// Result of a successful [`Machine::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// An ordinary instruction retired.
    Continue,
    /// An `ebreak` retired; by convention the machine halts.
    Break,
    /// An `ecall` retired; the environment decides what it means.
    Ecall,
}

/// The Riscette abstract machine state.
#[derive(Clone)]
pub struct Machine {
    /// Architectural registers; `regs[0]` is kept at zero.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Byte-addressable sparse memory, with the loaded program's
    /// decoded text while no store has reached it.
    pub mem: Memory,
    /// Retired-instruction counter.
    pub instret: u64,
    /// Whether an `ebreak` has halted the machine.
    pub halted: bool,
    heap_next: u32,
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

impl Machine {
    /// Create an empty machine (zeroed registers and memory).
    pub fn new() -> Self {
        Machine {
            regs: [0; 32],
            pc: 0,
            mem: Memory::default(),
            instret: 0,
            halted: false,
            heap_next: HEAP_BASE,
        }
    }

    /// Create a machine loaded with `program`, with the PC at the text base
    /// and the stack pointer initialized.
    pub fn with_program(program: &Program) -> Self {
        let mut m = Machine::new();
        m.load_program(program);
        m.setup_stack();
        m
    }

    /// Copy a program's text and data images into memory and set the PC.
    ///
    /// Also attaches the text decoded once (clones of this machine
    /// share it), so fetch reads no memory while the text is intact.
    /// The data image is stored after, so a data section laid over the
    /// text detaches it like any other store.
    pub fn load_program(&mut self, program: &Program) {
        self.mem.store_bytes(program.text_base, &program.text_bytes());
        self.mem.attach_text(Arc::new(Text::new(program.text_base, &program.text)));
        self.mem.store_bytes(program.data_base, &program.data);
        self.pc = program.text_base;
    }

    /// Point `sp` at the abstract stack region.
    pub fn setup_stack(&mut self) {
        self.regs[Reg::SP.0 as usize] = STACK_TOP;
    }

    /// Bump-allocate `size` bytes in the machine heap (16-byte aligned),
    /// mirroring CompCert's `alloc` in the fig. 8 interpretation.
    pub fn alloc(&mut self, size: u32) -> u32 {
        let addr = self.heap_next;
        self.heap_next = self.heap_next.wrapping_add((size + 15) & !15);
        addr
    }

    /// Write bytes into machine memory (fig. 8 `storebytes`).
    pub fn storebytes(&mut self, addr: u32, bytes: &[u8]) {
        self.mem.store_bytes(addr, bytes);
    }

    /// Read bytes from machine memory (fig. 8 `loadbytes`).
    pub fn loadbytes(&self, addr: u32, len: usize) -> Vec<u8> {
        self.mem.load_bytes(addr, len)
    }

    /// Read a register (register 0 always reads zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r == Reg::ZERO {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    /// Write a register (writes to register 0 are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    /// The operation at `pc`: from the decoded text while it is
    /// attached, without reading memory; else decoded from the live
    /// memory word. The text-store barrier (see [`Memory`]) detaches the
    /// decoded text at the first store into it, so self-modifying code
    /// sees exact uncached semantics.
    #[inline(always)]
    fn fetch(&self, pc: u32) -> Result<Uop, TrapCause> {
        if pc & 3 != 0 {
            return Err(TrapCause::MisalignedFetch { pc });
        }
        match self.mem.text.as_ref().and_then(|t| t.uop(pc)) {
            Some(u) => Ok(u),
            None => Ok(Uop::decode(self.mem.load_u32(pc))),
        }
    }

    /// Execute one instruction.
    pub fn step(&mut self) -> Result<StepOutcome, TrapCause> {
        let (next_pc, outcome) = self.exec(self.fetch(self.pc)?, self.pc)?;
        self.pc = next_pc;
        self.instret += 1;
        Ok(outcome)
    }

    /// Register `r` (register 0 reads zero).
    #[inline(always)]
    fn x(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[(r & 31) as usize]
        }
    }

    /// Write register `rd` (writes to register 0 are discarded).
    #[inline(always)]
    fn set_x(&mut self, rd: u8, v: u32) {
        if rd != 0 {
            self.regs[(rd & 31) as usize] = v;
        }
    }

    /// The semantics of every operation, one dispatch per instruction:
    /// `u` executed at `pc` yields the next PC. A trap changes nothing.
    #[inline(always)]
    fn exec(&mut self, u: Uop, pc: u32) -> Result<(u32, StepOutcome), TrapCause> {
        let mut next_pc = pc.wrapping_add(4);
        let (a, b, imm) = (self.x(u.rs1), self.x(u.rs2), u.imm as u32);
        let addr = a.wrapping_add(imm);
        let misaligned = || Err(TrapCause::MisalignedAccess { pc, addr });
        let alu = |op: AluOp, b| op.eval(a, b);
        let v = match u.code {
            Code::Lui => imm,
            Code::Auipc => pc.wrapping_add(imm),
            Code::Jal => {
                next_pc = pc.wrapping_add(imm);
                pc.wrapping_add(4)
            }
            Code::Jalr => {
                next_pc = addr & !1;
                pc.wrapping_add(4)
            }
            Code::Beq | Code::Bne | Code::Blt | Code::Bge | Code::Bltu | Code::Bgeu => {
                let taken = match u.code {
                    Code::Beq => a == b,
                    Code::Bne => a != b,
                    Code::Blt => (a as i32) < (b as i32),
                    Code::Bge => (a as i32) >= (b as i32),
                    Code::Bltu => a < b,
                    _ => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(imm);
                }
                return Ok((next_pc, StepOutcome::Continue));
            }
            Code::Lb => self.mem.load_u8(addr) as i8 as i32 as u32,
            Code::Lbu => self.mem.load_u8(addr) as u32,
            Code::Lh | Code::Lhu => {
                if addr & 1 != 0 {
                    return misaligned();
                }
                let h = u16::from_le_bytes([
                    self.mem.load_u8(addr),
                    self.mem.load_u8(addr.wrapping_add(1)),
                ]);
                if u.code == Code::Lh {
                    h as i16 as i32 as u32
                } else {
                    h as u32
                }
            }
            Code::Lw => {
                if addr & 3 != 0 {
                    return misaligned();
                }
                self.mem.load_u32(addr)
            }
            Code::Sb | Code::Sh | Code::Sw => {
                match u.code {
                    Code::Sb => self.mem.store_u8(addr, b as u8),
                    Code::Sh => {
                        if addr & 1 != 0 {
                            return misaligned();
                        }
                        self.mem.store_u8(addr, b as u8);
                        self.mem.store_u8(addr.wrapping_add(1), (b >> 8) as u8);
                    }
                    _ => {
                        if addr & 3 != 0 {
                            return misaligned();
                        }
                        self.mem.store_u32(addr, b);
                    }
                }
                return Ok((next_pc, StepOutcome::Continue));
            }
            Code::AddI => alu(AluOp::Add, imm),
            Code::SubI => alu(AluOp::Sub, imm),
            Code::SllI => alu(AluOp::Sll, imm),
            Code::SltI => alu(AluOp::Slt, imm),
            Code::SltuI => alu(AluOp::Sltu, imm),
            Code::XorI => alu(AluOp::Xor, imm),
            Code::SrlI => alu(AluOp::Srl, imm),
            Code::SraI => alu(AluOp::Sra, imm),
            Code::OrI => alu(AluOp::Or, imm),
            Code::AndI => alu(AluOp::And, imm),
            Code::MulI => alu(AluOp::Mul, imm),
            Code::MulhI => alu(AluOp::Mulh, imm),
            Code::MulhsuI => alu(AluOp::Mulhsu, imm),
            Code::MulhuI => alu(AluOp::Mulhu, imm),
            Code::DivI => alu(AluOp::Div, imm),
            Code::DivuI => alu(AluOp::Divu, imm),
            Code::RemI => alu(AluOp::Rem, imm),
            Code::RemuI => alu(AluOp::Remu, imm),
            Code::Add => alu(AluOp::Add, b),
            Code::Sub => alu(AluOp::Sub, b),
            Code::Sll => alu(AluOp::Sll, b),
            Code::Slt => alu(AluOp::Slt, b),
            Code::Sltu => alu(AluOp::Sltu, b),
            Code::Xor => alu(AluOp::Xor, b),
            Code::Srl => alu(AluOp::Srl, b),
            Code::Sra => alu(AluOp::Sra, b),
            Code::Or => alu(AluOp::Or, b),
            Code::And => alu(AluOp::And, b),
            Code::Mul => alu(AluOp::Mul, b),
            Code::Mulh => alu(AluOp::Mulh, b),
            Code::Mulhsu => alu(AluOp::Mulhsu, b),
            Code::Mulhu => alu(AluOp::Mulhu, b),
            Code::Div => alu(AluOp::Div, b),
            Code::Divu => alu(AluOp::Divu, b),
            Code::Rem => alu(AluOp::Rem, b),
            Code::Remu => alu(AluOp::Remu, b),
            Code::Fence => return Ok((next_pc, StepOutcome::Continue)),
            Code::Ecall => return Ok((next_pc, StepOutcome::Ecall)),
            Code::Ebreak => {
                self.halted = true;
                return Ok((next_pc, StepOutcome::Break));
            }
            Code::Illegal => return Err(TrapCause::IllegalInstruction { pc, word: imm }),
        };
        self.set_x(u.rd, v);
        Ok((next_pc, StepOutcome::Continue))
    }

    /// Run until `ebreak`, a trap, or `max_steps` instructions retire.
    ///
    /// Returns the number of instructions retired. An error is returned on
    /// a trap or if the step budget is exhausted before `ebreak`.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, RunError> {
        if self.halted {
            return Ok(0);
        }
        // The PC and the count live in locals until the run ends.
        let mut pc = self.pc;
        let mut n = 0;
        let result = loop {
            if n >= max_steps {
                break Err(RunError::OutOfFuel { steps: max_steps, pc });
            }
            match self.fetch(pc).and_then(|u| self.exec(u, pc)) {
                Ok((next_pc, outcome)) => {
                    pc = next_pc;
                    n += 1;
                    if outcome == StepOutcome::Break {
                        break Ok(n);
                    }
                }
                Err(t) => break Err(RunError::Trap(t)),
            }
        };
        self.pc = pc;
        self.instret += n;
        result
    }

    /// Call the function at `entry` with up to 8 arguments in `a0..a7`,
    /// running until it returns (to a sentinel `ebreak`).
    ///
    /// The machine's stack pointer must already be set up. Returns the
    /// value left in `a0`.
    pub fn call(&mut self, entry: u32, args: &[u32], max_steps: u64) -> Result<u32, RunError> {
        assert!(args.len() <= 8, "at most 8 register arguments");
        // Plant an `ebreak` at a sentinel return address.
        let sentinel = STACK_TOP.wrapping_add(0x100);
        self.mem.store_u32(sentinel, crate::encode::encode(Instr::Ebreak));
        for (i, &a) in args.iter().enumerate() {
            self.set_reg(Reg(10 + i as u8), a);
        }
        self.set_reg(Reg::RA, sentinel);
        self.pc = entry;
        self.halted = false;
        self.run(max_steps)?;
        Ok(self.reg(Reg::A0))
    }
}

/// Error from [`Machine::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The machine trapped.
    Trap(TrapCause),
    /// The step budget was exhausted.
    OutOfFuel {
        /// The budget that was exhausted.
        steps: u64,
        /// PC at the time the budget ran out.
        pc: u32,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Trap(t) => write!(f, "{t}"),
            RunError::OutOfFuel { steps, pc } => {
                write!(f, "out of fuel after {steps} steps at pc={pc:#010x}")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::AluOp;

    fn run_and_get_a0(src: &str) -> u32 {
        let p = assemble(src).unwrap();
        let mut m = Machine::with_program(&p);
        m.run(1_000_000).unwrap();
        m.reg(Reg::A0)
    }

    #[test]
    fn arithmetic_program() {
        let a0 = run_and_get_a0(
            "
            li a0, 6
            li a1, 7
            mul a0, a0, a1
            ebreak
            ",
        );
        assert_eq!(a0, 42);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let a0 = run_and_get_a0(
            "
                li a0, 0
                li a1, 1
                li a2, 11
            loop:
                add a0, a0, a1
                addi a1, a1, 1
                bne a1, a2, loop
                ebreak
            ",
        );
        assert_eq!(a0, 55);
    }

    #[test]
    fn function_call_and_stack() {
        let a0 = run_and_get_a0(
            "
            main:
                li a0, 5
                call square
                ebreak
            square:
                addi sp, sp, -16
                sw ra, 12(sp)
                mul a0, a0, a0
                lw ra, 12(sp)
                addi sp, sp, 16
                ret
            ",
        );
        assert_eq!(a0, 25);
    }

    #[test]
    fn loads_stores_all_widths() {
        let a0 = run_and_get_a0(
            "
                la t0, buf
                li t1, -2
                sb t1, 0(t0)
                lbu a0, 0(t0)      # 0xfe
                lb t2, 0(t0)       # -2
                add a0, a0, t2     # 0xfe - 2 = 0xfc
                li t1, 0xbeef
                sh t1, 2(t0)
                lhu t3, 2(t0)
                add a0, a0, t3     # + 0xbeef
                lh t4, 2(t0)       # sign-extended negative
                sub a0, a0, t4
                ebreak
            .data
            buf: .zero 8
            ",
        );
        assert_eq!(a0, 0xFCu32.wrapping_add(0xBEEF).wrapping_sub(0xFFFF_BEEF));
    }

    #[test]
    fn misaligned_word_access_traps() {
        let p = assemble("li t0, 2\n lw a0, 0(t0)\n ebreak").unwrap();
        let mut m = Machine::with_program(&p);
        let e = m.run(100).unwrap_err();
        assert!(matches!(e, RunError::Trap(TrapCause::MisalignedAccess { addr: 2, .. })));
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let a0 = run_and_get_a0(
            "
            li t0, 99
            add zero, t0, t0
            add a0, zero, zero
            ebreak
            ",
        );
        assert_eq!(a0, 0);
    }

    #[test]
    fn out_of_fuel_reported() {
        let p = assemble("spin: j spin").unwrap();
        let mut m = Machine::with_program(&p);
        let e = m.run(10).unwrap_err();
        assert!(matches!(e, RunError::OutOfFuel { steps: 10, .. }));
    }

    #[test]
    fn call_api() {
        let p = assemble(
            "
            add3:
                add a0, a0, a1
                add a0, a0, a2
                ret
            ",
        )
        .unwrap();
        let mut m = Machine::with_program(&p);
        let entry = p.address_of("add3").unwrap();
        let r = m.call(entry, &[1, 2, 3], 100).unwrap();
        assert_eq!(r, 6);
    }

    #[test]
    fn alloc_bump_and_buffers() {
        let mut m = Machine::new();
        let a = m.alloc(10);
        let b = m.alloc(1);
        assert_eq!(a, HEAP_BASE);
        assert_eq!(b, HEAP_BASE + 16);
        m.storebytes(a, &[1, 2, 3]);
        assert_eq!(m.loadbytes(a, 4), vec![1, 2, 3, 0]);
    }

    #[test]
    fn page_spanning_accesses_match_bytewise() {
        // A word and a byte run that straddle the page boundary at
        // 0x1000 must behave exactly like four independent byte
        // accesses (the fast path only covers within-page accesses).
        let mut m = Memory::default();
        m.store_u32(0x0FFE, 0xAABB_CCDD);
        assert_eq!(m.load_u8(0x0FFE), 0xDD);
        assert_eq!(m.load_u8(0x0FFF), 0xCC);
        assert_eq!(m.load_u8(0x1000), 0xBB);
        assert_eq!(m.load_u8(0x1001), 0xAA);
        assert_eq!(m.load_u32(0x0FFE), 0xAABB_CCDD);
        m.store_bytes(0x0FFD, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.load_bytes(0x0FFD, 6), vec![1, 2, 3, 4, 5, 6]);
        // Unwritten tails still read as zero across the boundary.
        assert_eq!(m.load_bytes(0x1FFE, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn a_store_that_wraps_into_the_text_detaches_it() {
        // Text at address 0; a word stored at 0xFFFF_FFFE wraps and
        // rewrites the low half of the first instruction.
        let p = assemble("li a0, 1\n ebreak").unwrap();
        let mut m = Machine::with_program(&p);
        let add = crate::encode::encode(Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::ZERO,
            imm: 7,
        });
        let old = m.mem.load_u32(0);
        m.mem.store_u32(0xFFFF_FFFE, (add & 0xFFFF) << 16);
        assert!(!m.mem.text_attached(), "the wrapped store reached the text");
        assert_eq!(m.mem.load_u32(0), old & 0xFFFF_0000 | add & 0xFFFF);
        m.mem.store_u32(0, add);
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::A0), 7);
    }

    #[test]
    fn a_store_that_starts_below_the_text_detaches_it() {
        let layout = crate::asm::Layout { text_base: 0x100, data_base: 0x2000_0000 };
        let p = crate::asm::assemble_with("li a0, 1\n ebreak", layout).unwrap();
        let mut m = Machine::with_program(&p);
        m.mem.store_bytes(0xFC, &[0; 8]);
        assert!(!m.mem.text_attached(), "the store reached the first text word");
        let e = m.run(10).unwrap_err();
        assert_eq!(e, RunError::Trap(TrapCause::IllegalInstruction { pc: 0x100, word: 0 }));
    }

    #[test]
    fn clones_of_a_shared_image_keep_their_own_stores() {
        let p = assemble(".data\nbuf: .zero 8").unwrap();
        let mut template = Machine::with_program(&p);
        template.mem.store_u32(p.data_base, 5);
        template.mem.share();
        let (mut a, b) = (template.clone(), template.clone());
        a.mem.store_u32(p.data_base, 6);
        assert_eq!(a.mem.load_u32(p.data_base), 6);
        assert_eq!(b.mem.load_u32(p.data_base), 5, "a sibling clone");
        assert_eq!(template.mem.load_u32(p.data_base), 5, "the template");
    }

    #[test]
    fn self_modifying_text_defeats_the_fetch_cache() {
        // The program overwrites its own `mul` with an `add` word
        // before reaching it. The pre-decoded cache entry no longer
        // matches the live memory word, so fetch must fall back to
        // decoding the stored word — verify-on-hit, never stale.
        let p = assemble(
            "
                la t0, patch      # address of the mul below
                lw t1, 0(t0)      # (touch it so the cache has seen it)
                la t2, repl
                lw t3, 0(t2)      # the add word
                sw t3, 0(t0)      # patch text
                li a0, 6
                li a1, 7
            patch:
                mul a0, a0, a1    # becomes: add a0, a0, a1
                ebreak
            repl:
                add a0, a0, a1
            ",
        )
        .unwrap();
        let mut m = Machine::with_program(&p);
        m.run(1_000).unwrap();
        assert_eq!(m.reg(Reg::A0), 13, "patched add must execute, not the cached mul");
    }
}
