//! The AST-walking Low\* interpreter, kept as a test oracle.
//!
//! This is the interpreter `parfait_littlec::interp` used before it
//! resolved names to frame slots: every variable is looked up through
//! `HashMap` scopes, every call by name, and the callee's AST is cloned
//! on each call. The differential tests hold the slot-resolved
//! interpreter to it — results, error messages and error lines — so it
//! must not change.
#![allow(dead_code)]

use std::collections::HashMap;

use parfait_riscv::machine::Memory;

use parfait_littlec::ast::*;
use parfait_littlec::interp::Value;
use parfait_littlec::LcError;

fn int(v: Value, line: usize) -> Result<u32, LcError> {
    match v {
        Value::Int(v) => Ok(v),
        Value::Ptr { .. } => Err(LcError::new(line, "expected integer, found pointer")),
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// The interpreter for one program.
pub struct OracleInterp<'p> {
    program: &'p Program,
    /// Address of each global array.
    global_addrs: HashMap<String, (u32, u32)>, // name -> (addr, size)
    /// Fuel limit per `run` (statements + expressions evaluated).
    pub fuel: u64,
}

const GLOBAL_BASE: u32 = 0x2000_0000;
const STACK_BASE: u32 = 0x7000_0000;
const HEAP_BASE: u32 = 0x4000_0000;

struct Frame {
    scopes: Vec<HashMap<String, Slot>>,
}

#[derive(Clone, Copy)]
enum Slot {
    /// A scalar or pointer variable with its declared type.
    Scalar { v: Value, ty: Ty },
    /// An array allocation; decays to a pointer to `elem`.
    Array { addr: u32, size: u32, elem: Ty },
}

struct State<'p> {
    mem: Memory,
    fuel: u64,
    program: &'p Program,
    global_addrs: &'p HashMap<String, (u32, u32)>,
    stack_next: u32,
    call_depth: u32,
}

impl<'p> OracleInterp<'p> {
    /// Create an interpreter for `program`. The program must already be
    /// type-checked.
    pub fn new(program: &'p Program) -> Self {
        let mut global_addrs = HashMap::new();
        let mut next = GLOBAL_BASE;
        for g in &program.globals {
            let size = match g {
                Global::ConstArray { elem, values, .. } => {
                    values.len() as u32 * if *elem == Ty::U32 { 4 } else { 1 }
                }
                Global::StaticArray { elem, len, .. } => len * if *elem == Ty::U32 { 4 } else { 1 },
                Global::ConstScalar { .. } => continue,
            };
            global_addrs.insert(g.name().to_string(), (next, size));
            next = next.wrapping_add((size + 3) & !3);
        }
        OracleInterp { program, global_addrs, fuel: 500_000_000 }
    }

    fn fresh_memory(&self) -> Memory {
        let mut mem = Memory::default();
        for g in &self.program.globals {
            if let Global::ConstArray { elem, name, values, .. } = g {
                let (addr, _) = self.global_addrs[name];
                match elem {
                    Ty::U32 => {
                        for (i, v) in values.iter().enumerate() {
                            mem.store_u32(addr + 4 * i as u32, *v);
                        }
                    }
                    _ => {
                        for (i, v) in values.iter().enumerate() {
                            mem.store_u8(addr + i as u32, *v as u8);
                        }
                    }
                }
            }
        }
        mem
    }

    /// Call `name` with the given arguments in a fresh memory containing
    /// only the globals, returning the result value.
    ///
    /// Useful for testing individual functions; buffers must be created
    /// via [`OracleInterp::call_with_buffers`].
    pub fn call(&self, name: &str, args: &[u32]) -> Result<u32, LcError> {
        let mem = self.fresh_memory();
        let mut st = State {
            mem,
            fuel: self.fuel,
            program: self.program,
            global_addrs: &self.global_addrs,
            stack_next: STACK_BASE,
            call_depth: 0,
        };
        let vals: Vec<Value> = args.iter().map(|&v| Value::Int(v)).collect();
        let r = st.call_function(name, &vals, 0)?;
        Ok(r.raw())
    }

    /// Call `name(buffers...)` where each argument is a byte buffer passed
    /// as a bounded pointer; returns the final contents of every buffer.
    pub fn call_with_buffers(
        &self,
        name: &str,
        buffers: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, LcError> {
        let mem = self.fresh_memory();
        let mut st = State {
            mem,
            fuel: self.fuel,
            program: self.program,
            global_addrs: &self.global_addrs,
            stack_next: STACK_BASE,
            call_depth: 0,
        };
        let mut ptrs = Vec::new();
        let mut next = HEAP_BASE;
        for buf in buffers {
            st.mem.store_bytes(next, buf);
            ptrs.push(Value::Ptr { addr: next, lo: next, hi: next + buf.len() as u32 });
            next += ((buf.len() as u32) + 15) & !15;
        }
        st.call_function(name, &ptrs, 0)?;
        let mut out = Vec::new();
        for (p, buf) in ptrs.iter().zip(buffers) {
            match p {
                Value::Ptr { lo, .. } => out.push(st.mem.load_bytes(*lo, buf.len())),
                Value::Int(_) => unreachable!(),
            }
        }
        Ok(out)
    }

    /// Whole-command step: run `handle(state, command, response)` and
    /// return the updated state and the response (fig. 8 semantics at the
    /// Low\* level).
    pub fn step(
        &self,
        state: &[u8],
        command: &[u8],
        response_size: usize,
    ) -> Result<(Vec<u8>, Vec<u8>), LcError> {
        let resp = vec![0u8; response_size];
        let mut res = self.call_with_buffers("handle", &[state, command, &resp])?;
        let response = res.pop().expect("three buffers in, three out");
        let _cmd = res.pop();
        let new_state = res.pop().expect("state buffer");
        Ok((new_state, response))
    }
}

impl State<'_> {
    fn burn(&mut self, line: usize) -> Result<(), LcError> {
        if self.fuel == 0 {
            return Err(LcError::new(line, "interpreter out of fuel"));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn call_function(&mut self, name: &str, args: &[Value], line: usize) -> Result<Value, LcError> {
        let f = self
            .program
            .function(name)
            .ok_or_else(|| LcError::new(line, format!("undefined function `{name}`")))?
            .clone();
        if f.params.len() != args.len() {
            return Err(LcError::new(line, format!("arity mismatch calling `{name}`")));
        }
        if self.call_depth > 256 {
            return Err(LcError::new(line, "call depth exceeded"));
        }
        self.call_depth += 1;
        let saved_stack = self.stack_next;
        let mut frame = Frame { scopes: vec![HashMap::new()] };
        for (p, a) in f.params.iter().zip(args) {
            let v = match (p.ty, *a) {
                (Ty::U8, Value::Int(v)) => Value::Int(v & 0xFF),
                (_, v) => v,
            };
            frame.scopes[0].insert(p.name.clone(), Slot::Scalar { v, ty: p.ty });
        }
        let flow = self.exec_block(&f.body, &mut frame)?;
        self.stack_next = saved_stack;
        self.call_depth -= 1;
        match flow {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Int(0)),
        }
    }

    fn exec_block(&mut self, body: &[Stmt], frame: &mut Frame) -> Result<Flow, LcError> {
        frame.scopes.push(HashMap::new());
        let saved_stack = self.stack_next;
        let mut result = Flow::Normal;
        for s in body {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                other => {
                    result = other;
                    break;
                }
            }
        }
        frame.scopes.pop();
        self.stack_next = saved_stack;
        Ok(result)
    }

    fn lookup(&self, frame: &Frame, name: &str, line: usize) -> Result<Slot, LcError> {
        for scope in frame.scopes.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Ok(*s);
            }
        }
        if let Some(&(addr, size)) = self.global_addrs.get(name) {
            let elem = match self.program.global(name) {
                Some(Global::ConstArray { elem, .. }) | Some(Global::StaticArray { elem, .. }) => {
                    *elem
                }
                _ => Ty::U32,
            };
            return Ok(Slot::Array { addr, size, elem });
        }
        if let Some(Global::ConstScalar { value, .. }) = self.program.global(name) {
            return Ok(Slot::Scalar { v: Value::Int(*value), ty: Ty::U32 });
        }
        Err(LcError::new(line, format!("undefined variable `{name}`")))
    }

    fn exec_stmt(&mut self, s: &Stmt, frame: &mut Frame) -> Result<Flow, LcError> {
        match s {
            Stmt::DeclScalar { ty, name, init, line } => {
                self.burn(*line)?;
                let v = match init {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Int(0),
                };
                let v = if *ty == Ty::U8 { Value::Int(int(v, *line)? & 0xFF) } else { v };
                frame
                    .scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), Slot::Scalar { v, ty: *ty });
                Ok(Flow::Normal)
            }
            Stmt::DeclArray { elem, name, len, line } => {
                self.burn(*line)?;
                let size = len * if *elem == Ty::U32 { 4 } else { 1 };
                let addr = self.stack_next;
                // Zero the freshly allocated stack array: reusing stack
                // addresses across scopes must not resurrect old contents.
                for i in 0..size {
                    self.mem.store_u8(addr + i, 0);
                }
                self.stack_next = self.stack_next.wrapping_add((size + 3) & !3);
                frame
                    .scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), Slot::Array { addr, size, elem: *elem });
                Ok(Flow::Normal)
            }
            Stmt::Assign { lv, rhs, line } => {
                self.burn(*line)?;
                let v = self.eval(rhs, frame)?;
                match lv {
                    LValue::Var(name) => {
                        let slot = self.lookup(frame, name, *line)?;
                        let new = match slot {
                            Slot::Scalar { ty, .. } => {
                                let v = if ty == Ty::U8 {
                                    Value::Int(int(v, *line)? & 0xFF)
                                } else {
                                    v
                                };
                                Slot::Scalar { v, ty }
                            }
                            Slot::Array { .. } => {
                                return Err(LcError::new(*line, "cannot assign to array"))
                            }
                        };
                        for scope in frame.scopes.iter_mut().rev() {
                            if scope.contains_key(name) {
                                scope.insert(name.clone(), new);
                                return Ok(Flow::Normal);
                            }
                        }
                        Err(LcError::new(*line, format!("cannot assign to global `{name}`")))
                    }
                    LValue::Index(base, idx) => {
                        let (addr, elem) = self.elem_addr(base, idx, frame, *line)?;
                        match elem {
                            Ty::U32 => self.mem.store_u32(addr, v.raw()),
                            _ => self.mem.store_u8(addr, v.raw() as u8),
                        }
                        Ok(Flow::Normal)
                    }
                }
            }
            Stmt::If { cond, then_body, else_body, line } => {
                self.burn(*line)?;
                let c = int(self.eval(cond, frame)?, *line)?;
                if c != 0 {
                    self.exec_block(then_body, frame)
                } else {
                    self.exec_block(else_body, frame)
                }
            }
            Stmt::While { cond, body, step, line } => loop {
                self.burn(*line)?;
                let c = int(self.eval(cond, frame)?, *line)?;
                if c == 0 {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body, frame)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    r @ Flow::Return(_) => return Ok(r),
                }
                match self.exec_block(step, frame)? {
                    Flow::Normal => {}
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Continue => {}
                    r @ Flow::Return(_) => return Ok(r),
                }
            },
            Stmt::Return { value, line } => {
                self.burn(*line)?;
                let v = match value {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
            Stmt::ExprStmt { expr, line } => {
                self.burn(*line)?;
                self.eval(expr, frame)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Compute the checked address of `base[idx]` and the element type.
    fn elem_addr(
        &mut self,
        base: &Expr,
        idx: &Expr,
        frame: &mut Frame,
        line: usize,
    ) -> Result<(u32, Ty), LcError> {
        let b = self.eval(base, frame)?;
        let i = int(self.eval(idx, frame)?, line)?;
        let (addr, lo, hi) = match b {
            Value::Ptr { addr, lo, hi } => (addr, lo, hi),
            Value::Int(_) => return Err(LcError::new(line, "cannot index a non-pointer")),
        };
        // Element size from the static type of `base`.
        let elem = self.static_ptr_elem(base, frame, line)?;
        let size = if elem == Ty::U32 { 4u32 } else { 1 };
        // Bounds math in u64 so that a wrapped u32 product cannot sneak
        // back inside the allocation.
        let eaddr64 = addr as u64 + i as u64 * size as u64;
        if eaddr64 < lo as u64 || eaddr64 + size as u64 > hi as u64 {
            return Err(LcError::new(
                line,
                format!(
                    "out-of-bounds access: address {eaddr64:#x}+{size} outside [{lo:#x}, {hi:#x})"
                ),
            ));
        }
        let eaddr = eaddr64 as u32;
        if elem == Ty::U32 && !eaddr.is_multiple_of(4) {
            return Err(LcError::new(line, format!("misaligned u32 access at {eaddr:#x}")));
        }
        Ok((eaddr, elem))
    }

    /// Determine the pointee type of a pointer-typed expression from its
    /// syntactic shape (the program is type-checked, so this is total).
    fn static_ptr_elem(&mut self, e: &Expr, frame: &mut Frame, line: usize) -> Result<Ty, LcError> {
        match &e.kind {
            ExprKind::Var(name) => match self.lookup(frame, name, line)? {
                Slot::Scalar { ty, .. } if ty.is_ptr() => Ok(ty.deref()),
                Slot::Array { elem, .. } => Ok(elem),
                _ => Err(LcError::new(line, format!("`{name}` is not a pointer"))),
            },
            ExprKind::Cast(ty, _) if ty.is_ptr() => Ok(ty.deref()),
            ExprKind::Bin(BinOp::Add, a, b) | ExprKind::Bin(BinOp::Sub, a, b) => self
                .static_ptr_elem(a, frame, line)
                .or_else(|_| self.static_ptr_elem(b, frame, line)),
            ExprKind::Call(name, _) => {
                let f = self
                    .program
                    .function(name)
                    .ok_or_else(|| LcError::new(line, format!("undefined function `{name}`")))?;
                if f.ret.is_ptr() {
                    Ok(f.ret.deref())
                } else {
                    Err(LcError::new(line, "call does not return a pointer"))
                }
            }
            _ => Err(LcError::new(line, "expression is not a pointer")),
        }
    }

    fn eval(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, LcError> {
        let line = e.line;
        self.burn(line)?;
        match &e.kind {
            ExprKind::Num(v) => Ok(Value::Int(*v)),
            ExprKind::Var(name) => match self.lookup(frame, name, line)? {
                Slot::Scalar { v, .. } => Ok(v),
                Slot::Array { addr, size, .. } => {
                    Ok(Value::Ptr { addr, lo: addr, hi: addr.wrapping_add(size) })
                }
            },
            ExprKind::Bin(op, a, b) => {
                // Short-circuit operators evaluate lazily.
                match op {
                    BinOp::LAnd => {
                        let va = int(self.eval(a, frame)?, line)?;
                        if va == 0 {
                            return Ok(Value::Int(0));
                        }
                        let vb = int(self.eval(b, frame)?, line)?;
                        return Ok(Value::Int((vb != 0) as u32));
                    }
                    BinOp::LOr => {
                        let va = int(self.eval(a, frame)?, line)?;
                        if va != 0 {
                            return Ok(Value::Int(1));
                        }
                        let vb = int(self.eval(b, frame)?, line)?;
                        return Ok(Value::Int((vb != 0) as u32));
                    }
                    _ => {}
                }
                let va = self.eval(a, frame)?;
                let vb = self.eval(b, frame)?;
                // Pointer arithmetic with scaling.
                match (op, va, vb) {
                    (BinOp::Add, Value::Ptr { addr, lo, hi }, Value::Int(n))
                    | (BinOp::Add, Value::Int(n), Value::Ptr { addr, lo, hi }) => {
                        let elem = self.static_ptr_elem(e, frame, line)?;
                        let size = if elem == Ty::U32 { 4 } else { 1 };
                        return Ok(Value::Ptr {
                            addr: addr.wrapping_add(n.wrapping_mul(size)),
                            lo,
                            hi,
                        });
                    }
                    (BinOp::Sub, Value::Ptr { addr, lo, hi }, Value::Int(n)) => {
                        let elem = self.static_ptr_elem(e, frame, line)?;
                        let size = if elem == Ty::U32 { 4 } else { 1 };
                        return Ok(Value::Ptr {
                            addr: addr.wrapping_sub(n.wrapping_mul(size)),
                            lo,
                            hi,
                        });
                    }
                    _ => {}
                }
                let x = va.raw();
                let y = vb.raw();
                let r = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(LcError::new(line, "division by zero"));
                        }
                        x / y
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(LcError::new(line, "remainder by zero"));
                        }
                        x % y
                    }
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => x.wrapping_shl(y & 31),
                    BinOp::Shr => x.wrapping_shr(y & 31),
                    BinOp::Lt => (x < y) as u32,
                    BinOp::Le => (x <= y) as u32,
                    BinOp::Gt => (x > y) as u32,
                    BinOp::Ge => (x >= y) as u32,
                    BinOp::Eq => (x == y) as u32,
                    BinOp::Ne => (x != y) as u32,
                    BinOp::LAnd | BinOp::LOr => unreachable!("handled above"),
                };
                Ok(Value::Int(r))
            }
            ExprKind::Un(op, a) => {
                let v = int(self.eval(a, frame)?, line)?;
                let r = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                    UnOp::LNot => (v == 0) as u32,
                };
                Ok(Value::Int(r))
            }
            ExprKind::Index(base, idx) => {
                let (addr, elem) = self.elem_addr(base, idx, frame, line)?;
                let v = match elem {
                    Ty::U32 => self.mem.load_u32(addr),
                    _ => self.mem.load_u8(addr) as u32,
                };
                Ok(Value::Int(v))
            }
            ExprKind::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                if name == "mulhu" {
                    let a = int(vals[0], line)? as u64;
                    let b = int(vals[1], line)? as u64;
                    return Ok(Value::Int(((a * b) >> 32) as u32));
                }
                self.call_function(name, &vals, line)
            }
            ExprKind::Cast(ty, inner) => {
                let v = self.eval(inner, frame)?;
                match (ty, v) {
                    (Ty::U8, v) => Ok(Value::Int(v.raw() & 0xFF)),
                    (Ty::U32, v) => Ok(Value::Int(v.raw())),
                    (t, Value::Ptr { addr, lo, hi }) if t.is_ptr() => {
                        Ok(Value::Ptr { addr, lo, hi })
                    }
                    (t, Value::Int(addr)) if t.is_ptr() => {
                        // Integer-to-pointer casts get the full address
                        // space; used only by system software (MMIO),
                        // which runs under the SoC, not this interpreter.
                        Ok(Value::Ptr { addr, lo: 0, hi: u32::MAX })
                    }
                    _ => Err(LcError::new(line, "unsupported cast")),
                }
            }
        }
    }
}
