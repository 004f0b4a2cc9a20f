//! The Riscette machine as it was before decoded-text dispatch: every
//! fetch reads the live memory word and uses the shared pre-decoded
//! cache only as a verify-on-hit decode memo, and every access hashes
//! its page number into a map of boxed pages. Kept as the differential
//! oracle the fast [`parfait_riscv::Machine`] must match on registers,
//! pc, `instret`, memory and the exact error.

#![allow(dead_code)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parfait_riscv::decode::decode;
use parfait_riscv::isa::{Instr, LoadOp, Reg, StoreOp};
use parfait_riscv::machine::{RunError, StepOutcome, TrapCause, HEAP_BASE, STACK_TOP};
use parfait_riscv::predecode::DecodeCache;
use parfait_riscv::Program;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u32 = 1 << PAGE_BITS;

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

type PageMap = HashMap<u32, Box<[u8; PAGE_SIZE as usize]>, BuildHasherDefault<PageHasher>>;

/// Sparse paged memory: one hash lookup per access.
#[derive(Clone, Default)]
pub struct OracleMemory {
    pages: PageMap,
}

impl OracleMemory {
    fn page_mut(&mut self, idx: u32) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages.entry(idx).or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    pub fn load_u8(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    pub fn store_u8(&mut self, addr: u32, val: u8) {
        self.page_mut(addr >> PAGE_BITS)[(addr & (PAGE_SIZE - 1)) as usize] = val;
    }

    pub fn load_u32(&self, addr: u32) -> u32 {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            return match self.pages.get(&(addr >> PAGE_BITS)) {
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

    pub fn store_u32(&mut self, addr: u32, val: u32) {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            self.page_mut(addr >> PAGE_BITS)[off..off + 4].copy_from_slice(&val.to_le_bytes());
            return;
        }
        for (i, b) in val.to_le_bytes().iter().enumerate() {
            self.store_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    pub fn load_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.load_u8(addr.wrapping_add(i as u32))).collect()
    }

    pub fn store_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.store_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Every page ever written, in page order, with its contents.
    pub fn pages(&self) -> Vec<(u32, Vec<u8>)> {
        let mut pages: Vec<(u32, Vec<u8>)> =
            self.pages.iter().map(|(&n, p)| (n, p.to_vec())).collect();
        pages.sort();
        pages
    }
}

/// The machine state, fetch and instruction semantics as they were.
#[derive(Clone)]
pub struct OracleMachine {
    pub regs: [u32; 32],
    pub pc: u32,
    pub mem: OracleMemory,
    pub instret: u64,
    pub halted: bool,
    heap_next: u32,
    fetch: Option<Arc<DecodeCache>>,
}

impl Default for OracleMachine {
    fn default() -> Self {
        OracleMachine {
            regs: [0; 32],
            pc: 0,
            mem: OracleMemory::default(),
            instret: 0,
            halted: false,
            heap_next: HEAP_BASE,
            fetch: None,
        }
    }
}

impl OracleMachine {
    pub fn with_program(program: &Program) -> Self {
        let mut m = OracleMachine::default();
        m.load_program(program);
        m.regs[Reg::SP.0 as usize] = STACK_TOP;
        m
    }

    pub fn load_program(&mut self, program: &Program) {
        let text = program.text_bytes();
        self.mem.store_bytes(program.text_base, &text);
        self.mem.store_bytes(program.data_base, &program.data);
        self.pc = program.text_base;
        self.fetch = Some(DecodeCache::shared(program.text_base, &text));
    }

    pub fn alloc(&mut self, size: u32) -> u32 {
        let addr = self.heap_next;
        self.heap_next = self.heap_next.wrapping_add((size + 15) & !15);
        addr
    }

    pub fn reg(&self, r: Reg) -> u32 {
        if r == Reg::ZERO {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    pub fn next_instr(&self) -> Result<Instr, TrapCause> {
        let pc = self.pc;
        if pc & 3 != 0 {
            return Err(TrapCause::MisalignedFetch { pc });
        }
        let word = self.mem.load_u32(pc);
        match self.fetch.as_deref().and_then(|c| c.entry(pc)) {
            Some(&(cached_word, decoded)) if cached_word == word => decoded,
            _ => decode(word),
        }
        .map_err(|e| TrapCause::IllegalInstruction { pc, word: e.0 })
    }

    pub fn step(&mut self) -> Result<StepOutcome, TrapCause> {
        let instr = self.next_instr()?;
        self.execute(instr)
    }

    pub fn execute(&mut self, instr: Instr) -> Result<StepOutcome, TrapCause> {
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(4);
        let mut outcome = StepOutcome::Continue;
        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 12),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add((imm as u32) << 12)),
            Instr::Jal { rd, off } => {
                self.set_reg(rd, next_pc);
                next_pc = pc.wrapping_add(off as u32);
            }
            Instr::Jalr { rd, rs1, off } => {
                let target = self.reg(rs1).wrapping_add(off as u32) & !1;
                self.set_reg(rd, next_pc);
                next_pc = target;
            }
            Instr::Branch { op, rs1, rs2, off } => {
                if op.taken(self.reg(rs1), self.reg(rs2)) {
                    next_pc = pc.wrapping_add(off as u32);
                }
            }
            Instr::Load { op, rd, rs1, off } => {
                let addr = self.reg(rs1).wrapping_add(off as u32);
                let v = match op {
                    LoadOp::Lb => self.mem.load_u8(addr) as i8 as i32 as u32,
                    LoadOp::Lbu => self.mem.load_u8(addr) as u32,
                    LoadOp::Lh | LoadOp::Lhu => {
                        if addr & 1 != 0 {
                            return Err(TrapCause::MisalignedAccess { pc, addr });
                        }
                        let h = u16::from_le_bytes([
                            self.mem.load_u8(addr),
                            self.mem.load_u8(addr.wrapping_add(1)),
                        ]);
                        if op == LoadOp::Lh {
                            h as i16 as i32 as u32
                        } else {
                            h as u32
                        }
                    }
                    LoadOp::Lw => {
                        if addr & 3 != 0 {
                            return Err(TrapCause::MisalignedAccess { pc, addr });
                        }
                        self.mem.load_u32(addr)
                    }
                };
                self.set_reg(rd, v);
            }
            Instr::Store { op, rs1, rs2, off } => {
                let addr = self.reg(rs1).wrapping_add(off as u32);
                let v = self.reg(rs2);
                match op {
                    StoreOp::Sb => self.mem.store_u8(addr, v as u8),
                    StoreOp::Sh => {
                        if addr & 1 != 0 {
                            return Err(TrapCause::MisalignedAccess { pc, addr });
                        }
                        self.mem.store_u8(addr, v as u8);
                        self.mem.store_u8(addr.wrapping_add(1), (v >> 8) as u8);
                    }
                    StoreOp::Sw => {
                        if addr & 3 != 0 {
                            return Err(TrapCause::MisalignedAccess { pc, addr });
                        }
                        self.mem.store_u32(addr, v);
                    }
                }
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let v = op.eval(self.reg(rs1), imm as u32);
                self.set_reg(rd, v);
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::Fence => {}
            Instr::Ecall => outcome = StepOutcome::Ecall,
            Instr::Ebreak => {
                self.halted = true;
                outcome = StepOutcome::Break;
            }
        }
        self.pc = next_pc;
        self.instret += 1;
        Ok(outcome)
    }

    pub fn run(&mut self, max_steps: u64) -> Result<u64, RunError> {
        let start = self.instret;
        while !self.halted {
            if self.instret - start >= max_steps {
                return Err(RunError::OutOfFuel { steps: max_steps, pc: self.pc });
            }
            match self.step() {
                Ok(StepOutcome::Break) => break,
                Ok(_) => {}
                Err(t) => return Err(RunError::Trap(t)),
            }
        }
        Ok(self.instret - start)
    }
}

/// The machine poised to run `handle(state, command, response)` as
/// the fig. 8 model built it before templates: a fresh machine per
/// step, the program stored again. Returns it and the three buffer
/// pointers, as `AsmStateMachine::prepare` does.
pub fn oracle_prepare(
    program: &Program,
    sizes: (usize, usize, usize),
    state: &[u8],
    command: &[u8],
) -> (OracleMachine, u32, u32, u32) {
    let (state_size, command_size, response_size) = sizes;
    let mut m = OracleMachine::with_program(program);
    let state_ptr = m.alloc(state_size as u32);
    m.mem.store_bytes(state_ptr, state);
    let command_ptr = m.alloc(command_size as u32);
    m.mem.store_bytes(command_ptr, command);
    let response_ptr = m.alloc(response_size as u32);
    m.set_reg(Reg::A0, state_ptr);
    m.set_reg(Reg::A1, command_ptr);
    m.set_reg(Reg::A2, response_ptr);
    let sentinel = STACK_TOP.wrapping_add(0x100);
    m.mem.store_u32(sentinel, parfait_riscv::encode::encode(Instr::Ebreak));
    m.set_reg(Reg::RA, sentinel);
    m.pc = program.address_of("handle").expect("a handle symbol");
    (m, state_ptr, command_ptr, response_ptr)
}
