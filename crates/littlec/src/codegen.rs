//! RV32IM code generation from littlec IR.
//!
//! This is the stand-in for the paper's CompCert backend: it emits
//! textual RV32IM assembly (the "App Impl \[Asm\]" level) that follows
//! the RISC-V calling convention — `handle` expects the state, command,
//! and response buffer pointers in `a0`, `a1`, and `a2` (paper §4.2).
//!
//! Three optimization levels are provided (paper Table 5 compares
//! CompCert `-O1` against GCC `-O2`):
//!
//! * [`OptLevel::O0`] — every virtual register lives in a stack slot;
//! * [`OptLevel::O1`] — the hottest vregs get dedicated callee-saved
//!   registers ([`crate::regalloc`]);
//! * [`OptLevel::O2`] — additionally runs the IR optimization pipeline
//!   ([`crate::opt`]): constant folding, copy propagation, immediate
//!   fusion, branch folding, and dead code elimination.
//!
//! Register conventions inside generated code: `t0`/`t1` are operand
//! scratch, `t2` is result scratch, `t6` is the large-frame-offset
//! scratch, `s0`–`s11` are allocated to hot vregs, and `a0`–`a7` carry
//! arguments and return values only.

use std::fmt::Write as _;

use crate::ast::{Global, Program, Ty};
use crate::ir::{lower, Inst, IrFunction, IrOp, IrProgram, Operand, Term, VReg, Width};
use crate::opt::{optimize_program, prune_unreachable};
use crate::regalloc::{allocate, Allocation, Loc, REG_NAMES};
use crate::LcError;

/// Compiler optimization level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization: all vregs in stack slots.
    O0,
    /// Register allocation only (the "verified compiler" datapoint).
    O1,
    /// Register allocation + IR optimizations (the "GCC -O2" datapoint).
    O2,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0 => f.write_str("-O0"),
            OptLevel::O1 => f.write_str("-O1"),
            OptLevel::O2 => f.write_str("-O2"),
        }
    }
}

/// Compile a type-checked program to RV32IM assembly text.
pub fn compile(program: &Program, opt: OptLevel) -> Result<String, LcError> {
    Ok(compile_ir(lower(program)?, opt))
}

/// Compile an already-lowered IR program to assembly text. Every
/// compile, through either entry point, counts once in the global
/// `littlec_compiles_total`.
pub fn compile_ir(mut ir: IrProgram, opt: OptLevel) -> String {
    parfait_telemetry::metrics::Metrics::global().counter("littlec_compiles_total").inc();
    for f in &mut ir.functions {
        prune_unreachable(f);
    }
    if opt == OptLevel::O2 {
        optimize_program(&mut ir);
    }
    let bounds = crate::loop_bounds::loop_bounds(&ir);
    let k = match opt {
        OptLevel::O0 => 0,
        _ => 20,
    };
    emit_program_with(&ir, k, opt == OptLevel::O2, &bounds)
}

/// Tracks which spill slot each scratch register currently mirrors, so
/// that `-O2` can skip redundant reloads. Sound because spill slots are
/// not addressable by program pointers (memory-safe littlec code cannot
/// form a pointer into the spill area), so only `sw`/`lw` to `sp`-relative
/// spill offsets — all of which go through the emitter — touch them.
#[derive(Default)]
struct SlotCache {
    /// For t0/t1/t2: the spill offset whose value the register holds.
    slot_of: [Option<u32>; 3],
}

impl SlotCache {
    fn idx(reg: &str) -> Option<usize> {
        match reg {
            "t0" => Some(0),
            "t1" => Some(1),
            "t2" => Some(2),
            _ => None,
        }
    }

    fn lookup(&self, off: u32) -> Option<&'static str> {
        const NAMES: [&str; 3] = ["t0", "t1", "t2"];
        self.slot_of.iter().position(|s| *s == Some(off)).map(|i| NAMES[i])
    }

    /// Register `reg` now holds the value of slot `off`.
    fn note_load(&mut self, off: u32, reg: &str) {
        // At most one register mirrors a given slot.
        for s in &mut self.slot_of {
            if *s == Some(off) {
                *s = None;
            }
        }
        if let Some(i) = Self::idx(reg) {
            self.slot_of[i] = Some(off);
        }
    }

    /// Register `reg` was overwritten with something else.
    fn note_write_reg(&mut self, reg: &str) {
        if let Some(i) = Self::idx(reg) {
            self.slot_of[i] = None;
        }
    }

    /// Slot `off` was overwritten (its cached mirror is stale).
    fn note_write_slot(&mut self, off: u32) {
        for s in &mut self.slot_of {
            if *s == Some(off) {
                *s = None;
            }
        }
    }

    fn clear(&mut self) {
        self.slot_of = [None; 3];
    }
}

struct Emitter {
    out: String,
    alloc: Allocation,
    /// `Some` when the -O2 slot cache is enabled.
    cache: Option<SlotCache>,
    /// Byte offset of each frame-slot array.
    array_off: Vec<u32>,
    /// Offset of vreg spill area.
    spill_base: u32,
    /// Offset where saved s-registers start.
    save_base: u32,
    /// Offset of the saved return address.
    ra_off: u32,
    /// Total frame size.
    frame: u32,
}

impl Emitter {
    fn line(&mut self, s: &str) {
        let _ = writeln!(self.out, "    {s}");
    }

    fn label(&mut self, s: &str) {
        // Control can join here from elsewhere: scratch contents unknown.
        if let Some(c) = &mut self.cache {
            c.clear();
        }
        let _ = writeln!(self.out, "{s}:");
    }

    fn cache_clear(&mut self) {
        if let Some(c) = &mut self.cache {
            c.clear();
        }
    }

    fn note_write_reg(&mut self, reg: &str) {
        if let Some(c) = &mut self.cache {
            c.note_write_reg(reg);
        }
    }

    /// Emit `lw rd, off(sp)` handling large offsets via t6.
    fn lw_sp(&mut self, rd: &str, off: u32) {
        if off < 2048 {
            self.line(&format!("lw {rd}, {off}(sp)"));
        } else {
            self.line(&format!("li t6, {off}"));
            self.line("add t6, t6, sp");
            self.line(&format!("lw {rd}, 0(t6)"));
        }
        if let Some(c) = &mut self.cache {
            c.note_load(off, rd);
        }
    }

    fn sw_sp(&mut self, rs: &str, off: u32) {
        if off < 2048 {
            self.line(&format!("sw {rs}, {off}(sp)"));
        } else {
            self.line(&format!("li t6, {off}"));
            self.line("add t6, t6, sp");
            self.line(&format!("sw {rs}, 0(t6)"));
        }
        if let Some(c) = &mut self.cache {
            c.note_write_slot(off);
            c.note_load(off, rs);
        }
    }

    fn addr_of_sp(&mut self, rd: &str, off: u32) {
        if off < 2048 {
            self.line(&format!("addi {rd}, sp, {off}"));
        } else {
            self.line(&format!("li {rd}, {off}"));
            self.line(&format!("add {rd}, {rd}, sp"));
        }
    }

    fn slot_off(&self, n: u32) -> u32 {
        self.spill_base + 4 * n
    }

    /// Make sure vreg `v` is readable in some register; returns its name.
    /// `scratch` must not hold a live value the caller still needs.
    fn read(&mut self, v: VReg, scratch: &'static str) -> String {
        match self.alloc.locs[v as usize] {
            Loc::Reg(i) => REG_NAMES[i as usize].to_string(),
            Loc::Slot(n) => {
                let off = self.slot_off(n);
                if let Some(c) = &self.cache {
                    if let Some(r) = c.lookup(off) {
                        return r.to_string();
                    }
                }
                self.lw_sp(scratch, off);
                scratch.to_string()
            }
        }
    }

    /// Read a second operand into a scratch register that is guaranteed
    /// not to clobber `avoid` (the register holding the first operand).
    fn read_avoiding(&mut self, v: VReg, avoid: &str) -> String {
        let scratch: &'static str = if avoid == "t1" { "t0" } else { "t1" };
        self.read(v, scratch)
    }

    /// Register into which vreg `v`'s new value should be computed;
    /// returns (register, needs_store).
    fn dst(&mut self, v: VReg) -> (String, bool) {
        match self.alloc.locs[v as usize] {
            Loc::Reg(i) => (REG_NAMES[i as usize].to_string(), false),
            Loc::Slot(_) => ("t2".to_string(), true),
        }
    }

    /// Store the computed value back if the destination is a slot.
    fn finish(&mut self, v: VReg, reg: &str, needs_store: bool) {
        if needs_store {
            let off = match self.alloc.locs[v as usize] {
                Loc::Slot(n) => self.slot_off(n),
                Loc::Reg(_) => unreachable!("finish only for slots"),
            };
            self.sw_sp(reg, off);
        }
    }

    fn emit_inst(&mut self, inst: &Inst) {
        match inst {
            Inst::Const { dst, value } => {
                let (r, st) = self.dst(*dst);
                self.note_write_reg(&r);
                self.line(&format!("li {r}, {}", *value as i32));
                self.finish(*dst, &r, st);
            }
            Inst::Copy { dst, src } => {
                let s = self.read(*src, "t0");
                let (r, st) = self.dst(*dst);
                if r != s {
                    self.note_write_reg(&r);
                    self.line(&format!("mv {r}, {s}"));
                }
                self.finish(*dst, &r, st);
            }
            Inst::Bin { op, dst, a, b } => {
                let ra = self.read(*a, "t0");
                match b {
                    Operand::Imm(i) => {
                        let (rd, st) = self.dst(*dst);
                        let m = match op {
                            IrOp::Add => "addi",
                            IrOp::And => "andi",
                            IrOp::Or => "ori",
                            IrOp::Xor => "xori",
                            IrOp::Sltu => "sltiu",
                            IrOp::Sll => "slli",
                            IrOp::Srl => "srli",
                            other => unreachable!("no immediate form for {other:?}"),
                        };
                        self.note_write_reg(&rd);
                        self.line(&format!("{m} {rd}, {ra}, {}", *i as i32));
                        self.finish(*dst, &rd, st);
                    }
                    Operand::Reg(rb) => {
                        let rb = self.read_avoiding(*rb, &ra);
                        let (rd, st) = self.dst(*dst);
                        let m = match op {
                            IrOp::Add => "add",
                            IrOp::Sub => "sub",
                            IrOp::Mul => "mul",
                            IrOp::Divu => "divu",
                            IrOp::Remu => "remu",
                            IrOp::And => "and",
                            IrOp::Or => "or",
                            IrOp::Xor => "xor",
                            IrOp::Sll => "sll",
                            IrOp::Srl => "srl",
                            IrOp::Sltu => "sltu",
                            IrOp::Mulhu => "mulhu",
                        };
                        self.note_write_reg(&rd);
                        self.line(&format!("{m} {rd}, {ra}, {rb}"));
                        self.finish(*dst, &rd, st);
                    }
                }
            }
            Inst::Load { dst, addr, width } => {
                let ra = self.read(*addr, "t0");
                let (rd, st) = self.dst(*dst);
                let m = match width {
                    Width::Byte => "lbu",
                    Width::Word => "lw",
                };
                self.note_write_reg(&rd);
                self.line(&format!("{m} {rd}, 0({ra})"));
                self.finish(*dst, &rd, st);
            }
            Inst::Store { addr, src, width } => {
                let ra = self.read(*addr, "t0");
                let rs = self.read_avoiding(*src, &ra);
                let m = match width {
                    Width::Byte => "sb",
                    Width::Word => "sw",
                };
                self.line(&format!("{m} {rs}, 0({ra})"));
            }
            Inst::AddrOfLocal { dst, slot } => {
                let off = self.array_off[*slot];
                let (rd, st) = self.dst(*dst);
                self.note_write_reg(&rd);
                self.addr_of_sp(&rd, off);
                self.finish(*dst, &rd, st);
            }
            Inst::AddrOfGlobal { dst, name } => {
                let (rd, st) = self.dst(*dst);
                self.note_write_reg(&rd);
                self.line(&format!("la {rd}, glb_{name}"));
                self.finish(*dst, &rd, st);
            }
            Inst::Call { dst, func, args } => {
                for (i, &a) in args.iter().enumerate() {
                    let areg = format!("a{i}");
                    match self.alloc.locs[a as usize] {
                        Loc::Reg(r) => self.line(&format!("mv {areg}, {}", REG_NAMES[r as usize])),
                        Loc::Slot(n) => {
                            let off = self.slot_off(n);
                            self.lw_sp(&areg, off);
                        }
                    }
                }
                self.line(&format!("call {func}"));
                // The callee clobbers all caller-saved registers.
                self.cache_clear();
                if let Some(d) = dst {
                    match self.alloc.locs[*d as usize] {
                        Loc::Reg(r) => self.line(&format!("mv {}, a0", REG_NAMES[r as usize])),
                        Loc::Slot(n) => {
                            let off = self.slot_off(n);
                            self.sw_sp("a0", off);
                        }
                    }
                }
            }
        }
    }
}

/// Emit a whole program as assembly text using up to `k` dedicated
/// registers per function; `cache_slots` enables the -O2 reload cache.
pub fn emit_program(ir: &IrProgram, k: usize, cache_slots: bool) -> String {
    emit_program_with(ir, k, cache_slots, &[])
}

/// [`emit_program`] carrying loop-bound metadata: each bound renders as
/// a `# loopbound .L{fn}_{block} ...` comment line right after the
/// `.text` directive. The assembler strips comments, so the machine
/// code is byte-identical with or without annotations; the `bound`
/// analysis reads them from the assembly *text* before assembling.
pub fn emit_program_with(
    ir: &IrProgram,
    k: usize,
    cache_slots: bool,
    bounds: &[crate::loop_bounds::LoopBound],
) -> String {
    let mut out = String::new();
    out.push_str(".text\n");
    for b in bounds {
        out.push_str(&b.annotation());
        out.push('\n');
    }
    for f in &ir.functions {
        emit_function(&mut out, f, k, cache_slots);
    }
    // Globals.
    out.push_str(".data\n");
    for g in &ir.globals {
        match g {
            Global::ConstArray { elem, name, values, .. } => {
                out.push_str(".align 2\n");
                let _ = writeln!(out, "glb_{name}:");
                match elem {
                    Ty::U32 => {
                        for chunk in values.chunks(8) {
                            let row: Vec<String> =
                                chunk.iter().map(|v| format!("{:#010x}", v)).collect();
                            let _ = writeln!(out, "    .word {}", row.join(", "));
                        }
                    }
                    _ => {
                        for chunk in values.chunks(16) {
                            let row: Vec<String> =
                                chunk.iter().map(|v| format!("{:#04x}", v)).collect();
                            let _ = writeln!(out, "    .byte {}", row.join(", "));
                        }
                    }
                }
            }
            Global::StaticArray { elem, name, len, .. } => {
                let size = len * if *elem == Ty::U32 { 4 } else { 1 };
                out.push_str(".align 2\n");
                let _ = writeln!(out, "glb_{name}:");
                let _ = writeln!(out, "    .zero {size}");
            }
            Global::ConstScalar { .. } => {}
        }
    }
    out
}

fn emit_function(out: &mut String, f: &IrFunction, k: usize, cache_slots: bool) {
    let alloc = allocate(f, k);
    // Frame layout: [arrays][spill slots][saved s-regs][ra].
    let mut array_off = Vec::with_capacity(f.frame.len());
    let mut cursor = 0u32;
    for s in &f.frame {
        array_off.push(cursor);
        cursor += s.size;
    }
    let spill_base = cursor;
    cursor += 4 * alloc.nslots;
    let save_base = cursor;
    cursor += 4 * alloc.used_sregs.len() as u32;
    let ra_off = cursor;
    cursor += 4;
    let frame = (cursor + 15) & !15;

    let mut e = Emitter {
        out: String::new(),
        alloc,
        cache: cache_slots.then(SlotCache::default),
        array_off,
        spill_base,
        save_base,
        ra_off,
        frame,
    };
    e.label(&f.name);
    // Prologue.
    if e.frame > 0 {
        if e.frame <= 2048 {
            e.line(&format!("addi sp, sp, -{}", e.frame));
        } else {
            e.line(&format!("li t6, {}", e.frame));
            e.line("sub sp, sp, t6");
        }
    }
    let ra_off = e.ra_off;
    e.sw_sp("ra", ra_off);
    let save_base = e.save_base;
    let used = e.alloc.used_sregs.clone();
    for (j, &s) in used.iter().enumerate() {
        let off = save_base + 4 * j as u32;
        e.sw_sp(REG_NAMES[s as usize], off);
    }
    // Move parameters into their locations.
    let params = f.params.clone();
    for (i, &p) in params.iter().enumerate() {
        let areg = format!("a{i}");
        match e.alloc.locs[p as usize] {
            Loc::Reg(r) => e.line(&format!("mv {}, {areg}", REG_NAMES[r as usize])),
            Loc::Slot(n) => {
                let off = e.slot_off(n);
                e.sw_sp(&areg, off);
            }
        }
    }
    // Blocks, in order, with fall-through elision.
    let nblocks = f.blocks.len();
    for (bi, b) in f.blocks.iter().enumerate() {
        e.label(&format!(".L{}_{}", f.name, bi));
        for inst in &b.insts {
            e.emit_inst(inst);
        }
        match b.term.as_ref().expect("terminated") {
            Term::Jump(t) => {
                if *t != bi + 1 {
                    e.line(&format!("j .L{}_{}", f.name, t));
                }
            }
            Term::Br { cond, then_b, else_b } => {
                let c = e.read(*cond, "t0");
                if *else_b == bi + 1 {
                    e.line(&format!("bnez {c}, .L{}_{}", f.name, then_b));
                } else if *then_b == bi + 1 {
                    e.line(&format!("beqz {c}, .L{}_{}", f.name, else_b));
                } else {
                    e.line(&format!("bnez {c}, .L{}_{}", f.name, then_b));
                    e.line(&format!("j .L{}_{}", f.name, else_b));
                }
            }
            Term::Ret { value } => {
                if let Some(v) = value {
                    let r = e.read(*v, "t0");
                    if r != "a0" {
                        e.line(&format!("mv a0, {r}"));
                    }
                }
                if bi != nblocks - 1 {
                    e.line(&format!("j .L{}_ret", f.name));
                } else {
                    // Fall through to the epilogue.
                }
            }
        }
    }
    // Epilogue.
    e.label(&format!(".L{}_ret", f.name));
    for (j, &s) in used.iter().enumerate() {
        let off = save_base + 4 * j as u32;
        e.lw_sp(REG_NAMES[s as usize], off);
    }
    e.lw_sp("ra", ra_off);
    if e.frame > 0 {
        if e.frame < 2048 {
            e.line(&format!("addi sp, sp, {}", e.frame));
        } else {
            e.line(&format!("li t6, {}", e.frame));
            e.line("add sp, sp, t6");
        }
    }
    e.line("ret");
    out.push_str(&e.out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use parfait_riscv::asm::assemble;
    use parfait_riscv::machine::Machine;

    fn compile_and_run(src: &str, opt: OptLevel, func: &str, args: &[u32]) -> u32 {
        let p = frontend(src).unwrap();
        let asm = compile(&p, opt).unwrap();
        let prog = assemble(&asm).unwrap_or_else(|e| panic!("asm error: {e}\n{asm}"));
        let mut m = Machine::with_program(&prog);
        let entry = prog.address_of(func).unwrap();
        m.call(entry, args, 10_000_000).unwrap()
    }

    const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

    #[test]
    fn simple_arithmetic_all_levels() {
        for opt in ALL {
            let r = compile_and_run(
                "u32 f(u32 a, u32 b) { return (a + b) * (a - b); }",
                opt,
                "f",
                &[7, 3],
            );
            assert_eq!(r, 40, "{opt}");
        }
    }

    #[test]
    fn loops_and_arrays_all_levels() {
        let src = "
            u32 f(u32 n) {
                u32 a[8];
                for (u32 i = 0; i < n; i = i + 1) { a[i] = i * i; }
                u32 s = 0;
                for (u32 i = 0; i < n; i = i + 1) { s = s + a[i]; }
                return s;
            }
        ";
        for opt in ALL {
            assert_eq!(compile_and_run(src, opt, "f", &[5]), 30, "{opt}");
        }
    }

    #[test]
    fn nested_calls_all_levels() {
        let src = "
            u32 dbl(u32 x) { return x + x; }
            u32 quad(u32 x) { return dbl(dbl(x)); }
            u32 f(u32 x) { return quad(x) + dbl(x) + 1; }
        ";
        for opt in ALL {
            assert_eq!(compile_and_run(src, opt, "f", &[10]), 61, "{opt}");
        }
    }

    #[test]
    fn globals_all_levels() {
        let src = "
            const u32 K[4] = {2, 3, 5, 7};
            static u8 out[4];
            u32 f() {
                u32 p = 1;
                for (u32 i = 0; i < 4; i = i + 1) {
                    p = p * K[i];
                    out[i] = (u8)p;
                }
                return p + out[0];
            }
        ";
        for opt in ALL {
            assert_eq!(compile_and_run(src, opt, "f", &[]), 210 + 2, "{opt}");
        }
    }

    #[test]
    fn o2_is_faster_than_o0() {
        let src = "
            u32 f(u32 n) {
                u32 s = 0;
                for (u32 i = 0; i < n; i = i + 1) { s = s + (i ^ 3) * 5; }
                return s;
            }
        ";
        let p = frontend(src).unwrap();
        let mut counts = Vec::new();
        for opt in ALL {
            let asm = compile(&p, opt).unwrap();
            let prog = assemble(&asm).unwrap();
            let mut m = Machine::with_program(&prog);
            let entry = prog.address_of("f").unwrap();
            m.call(entry, &[1000], 10_000_000).unwrap();
            counts.push(m.instret);
        }
        assert!(counts[2] < counts[1], "O2 {} !< O1 {}", counts[2], counts[1]);
        assert!(counts[1] < counts[0], "O1 {} !< O0 {}", counts[1], counts[0]);
        // The gap between unoptimized and optimized should be substantial
        // (Table 5 reports ~7x between CompCert -O1 and GCC -O2).
        assert!(counts[0] as f64 / counts[2] as f64 > 2.0);
    }

    #[test]
    fn eight_params() {
        let src = "u32 f(u32 a, u32 b, u32 c, u32 d, u32 e, u32 g, u32 h, u32 i) {
            return a + b + c + d + e + g + h + i;
        }";
        for opt in ALL {
            assert_eq!(compile_and_run(src, opt, "f", &[1, 2, 3, 4, 5, 6, 7, 8]), 36, "{opt}");
        }
    }

    #[test]
    fn large_frames_work() {
        // A function with a frame larger than the 12-bit immediate range.
        let src = "
            u32 f(u32 n) {
                u32 a[300];
                u32 b[300];
                for (u32 i = 0; i < 300; i = i + 1) { a[i] = i; b[i] = i * 2; }
                u32 s = 0;
                for (u32 i = 0; i < 300; i = i + 1) { s = s + a[i] + b[i]; }
                return s + n;
            }
        ";
        let expect: u32 = (0..300u32).map(|i| i * 3).sum::<u32>() + 9;
        for opt in ALL {
            assert_eq!(compile_and_run(src, opt, "f", &[9]), expect, "{opt}");
        }
    }
}
