//! The form [`Machine`](crate::Machine) dispatches on: each instruction
//! flattened to one operation code and its operands, eight bytes, and
//! a program's text decoded into that form once.
//!
//! [`Instr`] nests its operation (an ALU op inside `Op`, a comparison
//! inside `Branch`), so executing one takes two dispatches. A [`Uop`]
//! names the whole operation in one code, with upper immediates already
//! shifted and an illegal word carried as an operation of its own, so
//! the interpreter takes one jump per instruction.

use crate::decode::decode;
use crate::isa::{AluOp, BranchOp, Instr, LoadOp, StoreOp};

/// One operation code per RV32IM operation. The `*I` ALU codes take
/// their second operand from the immediate, the others from `rs2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Code {
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    AddI,
    SubI,
    SllI,
    SltI,
    SltuI,
    XorI,
    SrlI,
    SraI,
    OrI,
    AndI,
    MulI,
    MulhI,
    MulhsuI,
    MulhuI,
    DivI,
    DivuI,
    RemI,
    RemuI,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Fence,
    Ecall,
    Ebreak,
    /// A word that does not decode; `imm` holds it.
    Illegal,
}

/// [`AluOp`] to its immediate-operand and register-operand codes, in
/// the enum's declaration order.
const ALU: [(AluOp, Code, Code); 18] = [
    (AluOp::Add, Code::AddI, Code::Add),
    (AluOp::Sub, Code::SubI, Code::Sub),
    (AluOp::Sll, Code::SllI, Code::Sll),
    (AluOp::Slt, Code::SltI, Code::Slt),
    (AluOp::Sltu, Code::SltuI, Code::Sltu),
    (AluOp::Xor, Code::XorI, Code::Xor),
    (AluOp::Srl, Code::SrlI, Code::Srl),
    (AluOp::Sra, Code::SraI, Code::Sra),
    (AluOp::Or, Code::OrI, Code::Or),
    (AluOp::And, Code::AndI, Code::And),
    (AluOp::Mul, Code::MulI, Code::Mul),
    (AluOp::Mulh, Code::MulhI, Code::Mulh),
    (AluOp::Mulhsu, Code::MulhsuI, Code::Mulhsu),
    (AluOp::Mulhu, Code::MulhuI, Code::Mulhu),
    (AluOp::Div, Code::DivI, Code::Div),
    (AluOp::Divu, Code::DivuI, Code::Divu),
    (AluOp::Rem, Code::RemI, Code::Rem),
    (AluOp::Remu, Code::RemuI, Code::Remu),
];

/// A flattened instruction: `rd`, `rs1` and `rs2` are register
/// numbers (0 where the instruction has none) and `imm` the immediate,
/// offset, shifted upper immediate or illegal word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Uop {
    pub code: Code,
    pub rd: u8,
    pub rs1: u8,
    pub rs2: u8,
    pub imm: i32,
}

impl Uop {
    fn new(code: Code, rd: u8, rs1: u8, rs2: u8, imm: i32) -> Uop {
        Uop { code, rd, rs1, rs2, imm }
    }

    /// The operation of the instruction word `word`.
    pub fn decode(word: u32) -> Uop {
        match decode(word) {
            Ok(instr) => Uop::from(instr),
            Err(_) => Uop::new(Code::Illegal, 0, 0, 0, word as i32),
        }
    }
}

impl From<Instr> for Uop {
    fn from(instr: Instr) -> Uop {
        match instr {
            Instr::Lui { rd, imm } => Uop::new(Code::Lui, rd.0, 0, 0, ((imm as u32) << 12) as i32),
            Instr::Auipc { rd, imm } => {
                Uop::new(Code::Auipc, rd.0, 0, 0, ((imm as u32) << 12) as i32)
            }
            Instr::Jal { rd, off } => Uop::new(Code::Jal, rd.0, 0, 0, off),
            Instr::Jalr { rd, rs1, off } => Uop::new(Code::Jalr, rd.0, rs1.0, 0, off),
            Instr::Branch { op, rs1, rs2, off } => {
                let code = match op {
                    BranchOp::Eq => Code::Beq,
                    BranchOp::Ne => Code::Bne,
                    BranchOp::Lt => Code::Blt,
                    BranchOp::Ge => Code::Bge,
                    BranchOp::Ltu => Code::Bltu,
                    BranchOp::Geu => Code::Bgeu,
                };
                Uop::new(code, 0, rs1.0, rs2.0, off)
            }
            Instr::Load { op, rd, rs1, off } => {
                let code = match op {
                    LoadOp::Lb => Code::Lb,
                    LoadOp::Lh => Code::Lh,
                    LoadOp::Lw => Code::Lw,
                    LoadOp::Lbu => Code::Lbu,
                    LoadOp::Lhu => Code::Lhu,
                };
                Uop::new(code, rd.0, rs1.0, 0, off)
            }
            Instr::Store { op, rs1, rs2, off } => {
                let code = match op {
                    StoreOp::Sb => Code::Sb,
                    StoreOp::Sh => Code::Sh,
                    StoreOp::Sw => Code::Sw,
                };
                Uop::new(code, 0, rs1.0, rs2.0, off)
            }
            Instr::OpImm { op, rd, rs1, imm } => Uop::new(ALU[op as usize].1, rd.0, rs1.0, 0, imm),
            Instr::Op { op, rd, rs1, rs2 } => Uop::new(ALU[op as usize].2, rd.0, rs1.0, rs2.0, 0),
            Instr::Fence => Uop::new(Code::Fence, 0, 0, 0, 0),
            Instr::Ecall => Uop::new(Code::Ecall, 0, 0, 0, 0),
            Instr::Ebreak => Uop::new(Code::Ebreak, 0, 0, 0, 0),
        }
    }
}

/// A text image decoded into [`Uop`]s, as placed at `base`.
pub(crate) struct Text {
    base: u32,
    uops: Vec<Uop>,
}

impl Text {
    pub fn new(base: u32, words: &[u32]) -> Text {
        Text { base, uops: words.iter().map(|&w| Uop::decode(w)).collect() }
    }

    /// The operation at `pc`, or `None` outside the text (or
    /// misaligned).
    #[inline(always)]
    pub fn uop(&self, pc: u32) -> Option<Uop> {
        let off = pc.wrapping_sub(self.base);
        if off & 3 != 0 {
            return None;
        }
        self.uops.get((off >> 2) as usize).copied()
    }

    /// Whether a store of `len` bytes at `addr` reaches the text
    /// (offsets wrap as [`uop`](Self::uop)'s do).
    #[inline(always)]
    pub fn overlaps(&self, addr: u32, len: u32) -> bool {
        let span = 4 * self.uops.len() as u64;
        let off = u64::from(addr.wrapping_sub(self.base));
        off < span || (span > 0 && off + u64::from(len) > 1 << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_table_follows_the_enum_order() {
        for (i, (op, _, _)) in ALU.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?}");
        }
    }

    #[test]
    fn illegal_words_carry_the_word() {
        let u = Uop::decode(0xFFFF_FFFF);
        assert_eq!((u.code, u.imm as u32), (Code::Illegal, 0xFFFF_FFFF));
    }
}
