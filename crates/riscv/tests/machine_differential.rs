//! The Riscette machine against the machine it replaced
//! (`tests/oracle`): decoded-text dispatch, the text-store barrier,
//! shared template pages and the resolved-page shortcut must not change
//! what a program does. Seeded random RV32IM programs — branches and
//! `jalr`, every load and store width, stores into their own text,
//! misaligned and illegal traps, running out of fuel — end with equal
//! registers, pc, `instret`, memory and the exact error; random memory
//! traffic around page boundaries and the top of the address space
//! reads back the same.

mod oracle;

use oracle::{OracleMachine, OracleMemory};
use parfait_riscv::encode::encode;
use parfait_riscv::isa::{AluOp, BranchOp, Instr, LoadOp, Reg, StoreOp};
use parfait_riscv::machine::{Machine, Memory, RunError, STACK_TOP};
use parfait_riscv::Program;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const ALU: [AluOp; 18] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
    AluOp::Mul,
    AluOp::Mulh,
    AluOp::Mulhsu,
    AluOp::Mulhu,
    AluOp::Div,
    AluOp::Divu,
    AluOp::Rem,
    AluOp::Remu,
];
const BRANCHES: [BranchOp; 6] =
    [BranchOp::Eq, BranchOp::Ne, BranchOp::Lt, BranchOp::Ge, BranchOp::Ltu, BranchOp::Geu];
const LOADS: [LoadOp; 5] = [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu];
const STORES: [StoreOp; 3] = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw];

/// Registers holding region addresses (text, data, stack, a word
/// before a page boundary); random ALU results never land in them.
const BASES: [Reg; 4] = [Reg::S0, Reg::S1, Reg::S2, Reg::S3];
/// Registers random instructions write.
const SCRATCH: [Reg; 10] =
    [Reg::RA, Reg::T0, Reg::T1, Reg::T2, Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::T3, Reg::ZERO];

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

fn any_reg(rng: &mut StdRng) -> Reg {
    Reg(rng.random_range(0..32u8))
}

/// An address operand: mostly a region base, sometimes any register.
fn base(rng: &mut StdRng) -> Reg {
    if rng.random_bool(0.85) {
        pick(rng, &BASES)
    } else {
        any_reg(rng)
    }
}

/// A byte offset: small, often unaligned.
fn offset(rng: &mut StdRng) -> i32 {
    rng.random_range(-64..64i32)
}

/// A control-transfer offset for word `at` of `len`: usually to a
/// word of the program, sometimes to a halfword (a misaligned fetch).
fn target(rng: &mut StdRng, at: usize, len: usize) -> i32 {
    let to = rng.random_range(0..len + 2) as i32;
    let off = 4 * (to - at as i32);
    if rng.random_bool(0.05) {
        off + 2
    } else {
        off
    }
}

fn random_word(rng: &mut StdRng, at: usize, len: usize) -> u32 {
    let i = match rng.random_range(0..100u32) {
        0..=19 => {
            let op = pick(rng, &ALU);
            Instr::Op { op, rd: pick(rng, &SCRATCH), rs1: any_reg(rng), rs2: any_reg(rng) }
        }
        20..=36 => {
            let op = pick(rng, &[AluOp::Add, AluOp::Slt, AluOp::Sltu, AluOp::Xor, AluOp::Or]);
            let (op, imm) = match rng.random_range(0..4u32) {
                0 => (pick(rng, &[AluOp::Sll, AluOp::Srl, AluOp::Sra]), rng.random_range(0..32)),
                1 => (AluOp::And, rng.random_range(-2048..2048)),
                _ => (op, rng.random_range(-2048..2048)),
            };
            Instr::OpImm { op, rd: pick(rng, &SCRATCH), rs1: any_reg(rng), imm }
        }
        37..=54 => Instr::Load {
            op: pick(rng, &LOADS),
            rd: pick(rng, &SCRATCH),
            rs1: base(rng),
            off: offset(rng),
        },
        55..=72 => Instr::Store {
            op: pick(rng, &STORES),
            rs1: base(rng),
            rs2: any_reg(rng),
            off: offset(rng),
        },
        73..=83 => Instr::Branch {
            op: pick(rng, &BRANCHES),
            rs1: any_reg(rng),
            rs2: any_reg(rng),
            off: target(rng, at, len),
        },
        84..=87 => Instr::Jal { rd: pick(rng, &SCRATCH), off: target(rng, at, len) },
        88..=90 => {
            // Through the text base or a link register; an odd offset
            // exercises the cleared low bit.
            let rs1 = pick(rng, &[Reg::S0, Reg::RA, Reg::T0]);
            let off = 4 * rng.random_range(0..len as i32) + rng.random_range(0..2);
            Instr::Jalr { rd: pick(rng, &SCRATCH), rs1, off }
        }
        91..=92 => Instr::Lui { rd: pick(rng, &SCRATCH), imm: rng.random_range(0..1 << 20) },
        93 => Instr::Auipc { rd: pick(rng, &SCRATCH), imm: rng.random_range(0..1 << 20) },
        94 => Instr::Ecall,
        95 => Instr::Fence,
        96 => Instr::Ebreak,
        // Mostly illegal words, sometimes a legal one by chance.
        _ => return rng.random::<u32>(),
    };
    encode(i)
}

/// A random program of 16–96 words at a text base that is page
/// aligned, just below a page boundary, or at the top of the address
/// space, with a random data image.
fn random_program(rng: &mut StdRng) -> Program {
    let len = rng.random_range(16..96usize);
    let text_base = match rng.random_range(0..3u32) {
        0 => 0,
        1 => 0x1000 - 4 * rng.random_range(1..8u32),
        _ => 0u32.wrapping_sub(4 * rng.random_range(1..len as u32)),
    };
    let text = (0..len).map(|at| random_word(rng, at, len)).collect();
    let mut data = vec![0u8; rng.random_range(0..256usize)];
    rng.fill(&mut data);
    Program { text_base, text, data_base: 0x2000_0000, data, symbols: Default::default() }
}

/// Registers both machines start from: the region bases, then random
/// values in the rest.
fn initial_regs(rng: &mut StdRng, program: &Program) -> [u32; 32] {
    let mut regs = [0u32; 32];
    for r in regs.iter_mut().skip(1) {
        *r = rng.random::<u32>();
    }
    regs[Reg::SP.0 as usize] = STACK_TOP;
    regs[Reg::S0.0 as usize] = program.text_base;
    regs[Reg::S1.0 as usize] = program.data_base;
    regs[Reg::S2.0 as usize] = STACK_TOP - 128;
    regs[Reg::S3.0 as usize] = 0x2000_0FFC;
    regs[Reg::RA.0 as usize] = program.text_base.wrapping_add(8);
    regs
}

/// Equal registers, pc, count, halt flag, and memory on every page the
/// oracle wrote plus the text and data images.
fn assert_same(label: &str, new: &Machine, old: &OracleMachine, program: &Program) {
    assert_eq!(new.regs, old.regs, "{label}: registers");
    assert_eq!(new.pc, old.pc, "{label}: pc");
    assert_eq!(new.instret, old.instret, "{label}: instret");
    assert_eq!(new.halted, old.halted, "{label}: halted");
    for (page, bytes) in old.mem.pages() {
        assert_eq!(new.loadbytes(page << 12, 4096), bytes, "{label}: page {page:#07x}");
    }
    let text = 4 * program.text.len();
    assert_eq!(
        new.loadbytes(program.text_base, text),
        old.mem.load_bytes(program.text_base, text),
        "{label}: text"
    );
}

#[test]
fn random_programs_match_the_oracle() {
    let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
    for seed in 0..1500u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng);
        let regs = initial_regs(&mut rng, &program);
        let fuel = rng.random_range(1..3000u64);
        let mut new = Machine::with_program(&program);
        let mut old = OracleMachine::with_program(&program);
        new.regs = regs;
        old.regs = regs;
        let (got, want) = (new.run(fuel), old.run(fuel));
        let label = format!("seed {seed}");
        assert_eq!(got, want, "{label}: run result");
        assert_same(&label, &new, &old, &program);
        let kind = match want {
            Ok(_) => "halted",
            Err(RunError::OutOfFuel { .. }) => "out of fuel",
            Err(RunError::Trap(t)) => match t {
                parfait_riscv::TrapCause::IllegalInstruction { .. } => "illegal",
                parfait_riscv::TrapCause::MisalignedAccess { .. } => "misaligned access",
                parfait_riscv::TrapCause::MisalignedFetch { .. } => "misaligned fetch",
            },
        };
        *outcomes.entry(kind.into()).or_default() += 1;
    }
    // The generator reaches every way a run can end.
    for kind in ["halted", "out of fuel", "illegal", "misaligned access", "misaligned fetch"] {
        assert!(outcomes.get(kind).is_some_and(|&n| n >= 20), "{kind}: {outcomes:?}");
    }
}

#[test]
fn single_steps_match_the_oracle() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
        let program = random_program(&mut rng);
        let regs = initial_regs(&mut rng, &program);
        let mut new = Machine::with_program(&program);
        let mut old = OracleMachine::with_program(&program);
        new.regs = regs;
        old.regs = regs;
        for i in 0..400 {
            let label = format!("seed {seed} step {i}");
            let want = old.step();
            assert_eq!(new.step(), want, "{label}");
            assert_same(&label, &new, &old, &program);
            if want.is_err() || old.halted {
                break;
            }
        }
    }
}

#[test]
fn stores_into_the_text_are_seen_by_fetch() {
    // Programs that store into their own text fetch the stored words:
    // a store through `s0` (the text base) lands in the decoded range
    // in a good share of the random programs above; here it is forced.
    let mut patched = 0;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x7e47_0000 + seed);
        let mut program = random_program(&mut rng);
        // Word 0 stores a random register over a random word of the
        // text; execution then falls through the text.
        let at = rng.random_range(1..program.text.len() as i32);
        let rs2 = pick(&mut rng, &SCRATCH);
        program.text[0] = encode(Instr::Store { op: StoreOp::Sw, rs1: Reg::S0, rs2, off: 4 * at });
        let regs = initial_regs(&mut rng, &program);
        let mut new = Machine::with_program(&program);
        let mut old = OracleMachine::with_program(&program);
        new.regs = regs;
        old.regs = regs;
        let fuel = 2000;
        assert_eq!(new.run(fuel), old.run(fuel), "seed {seed}");
        assert_same(&format!("seed {seed}"), &new, &old, &program);
        patched += usize::from(!new.mem.text_attached());
    }
    assert!(patched >= 250, "the first store detaches the decoded text ({patched}/300)");
}

#[test]
fn random_memory_traffic_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x3e3);
    // Addresses cluster around page boundaries and the wrap at the top.
    let hot = [0x0FFCu32, 0x1FFE, 0x2000_0FFD, 0xFFFF_FFFC, 0x7FFF_EFFE, 0x4000_0000];
    let mut new = Memory::default();
    let mut old = OracleMemory::default();
    for i in 0..20_000 {
        let addr = pick(&mut rng, &hot).wrapping_add(rng.random_range(0..9u32));
        match rng.random_range(0..6u32) {
            0 => {
                let v = rng.random::<u32>();
                new.store_u32(addr, v);
                old.store_u32(addr, v);
            }
            1 => {
                let v = rng.random::<u32>() as u8;
                new.store_u8(addr, v);
                old.store_u8(addr, v);
            }
            2 => {
                let mut bytes = vec![0u8; rng.random_range(0..12usize)];
                rng.fill(&mut bytes);
                new.store_bytes(addr, &bytes);
                old.store_bytes(addr, &bytes);
            }
            3 => assert_eq!(new.load_u32(addr), old.load_u32(addr), "op {i}"),
            4 => assert_eq!(new.load_u8(addr), old.load_u8(addr), "op {i}"),
            _ => {
                let n = rng.random_range(0..12usize);
                assert_eq!(new.load_bytes(addr, n), old.load_bytes(addr, n), "op {i}");
            }
        }
        if i % 5000 == 0 {
            // A shared snapshot and its clones stay independent.
            new.share();
            let snapshot = new.clone();
            new.store_u32(addr, !new.load_u32(addr));
            new.store_u32(addr, !new.load_u32(addr));
            for page in old.pages() {
                let at = page.0 << 12;
                assert_eq!(snapshot.load_bytes(at, 4096), page.1, "snapshot page {:#x}", page.0);
            }
        }
    }
    for (page, bytes) in old.pages() {
        assert_eq!(new.load_bytes(page << 12, 4096), bytes, "page {page:#07x}");
    }
}
