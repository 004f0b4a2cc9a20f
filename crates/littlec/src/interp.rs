//! Reference interpreter over the littlec AST.
//!
//! This is the "App Impl \[Low\*\]" level of abstraction: a whole-command
//! state machine whose step runs `handle(state, cmd, resp)` under the
//! reference semantics.
//!
//! Like Low\*'s `Stack` effect, the interpreter enforces memory safety:
//! pointers are *fat* (they carry the bounds of the allocation they point
//! into), and any out-of-bounds access is an error rather than undefined
//! behavior. This is the executable analogue of the paper's claim (§7.2)
//! that Low\* type checking catches buffer overflows and use-after-frees.
//!
//! [`Interp::new`] resolves the program once. Every local becomes a frame
//! slot, every global an address or a constant, every callee a function
//! index, and the pointee type of every pointer operand is computed up
//! front. Running a command then looks up no name and clones no AST.
//! Resolution is exact because littlec scopes are lexical: a statement
//! runs only after every statement before it in its enclosing blocks,
//! so the declaration a name meets at run time is the one it meets in
//! the text. A name with no declaration in scope resolves to an error
//! that fires when, and only when, the name is evaluated. Fuel is burned
//! at the same points as in an AST walk, so every result and every error
//! (message and line) is the one the walk would give.

use std::collections::HashMap;

use parfait_riscv::machine::Memory;

use crate::ast::*;
use crate::LcError;

/// A runtime value: a machine integer or a bounds-carrying pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// A `u32` (or widened `u8`) value.
    Int(u32),
    /// A pointer with the bounds `[lo, hi)` of its allocation.
    Ptr { addr: u32, lo: u32, hi: u32 },
}

impl Value {
    /// The raw 32-bit representation.
    pub fn raw(self) -> u32 {
        match self {
            Value::Int(v) => v,
            Value::Ptr { addr, .. } => addr,
        }
    }

    fn int(self, line: usize) -> Result<u32, LcError> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Ptr { .. } => Err(LcError::new(line, "expected integer, found pointer")),
        }
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

const GLOBAL_BASE: u32 = 0x2000_0000;
const STACK_BASE: u32 = 0x7000_0000;
const HEAP_BASE: u32 = 0x4000_0000;

/// The interpreter for one program.
pub struct Interp<'p> {
    functions: Vec<RFunction<'p>>,
    /// Memory holding only the initialized globals; each run starts
    /// from a copy.
    globals_mem: Memory,
    /// Fuel limit per `run` (statements + expressions evaluated).
    pub fuel: u64,
}

/// The pointee type of a pointer operand, or the error asking for it
/// reports.
type Elem = Result<Ty, Box<LcError>>;

/// A name, resolved.
#[derive(Clone, Copy)]
enum Var<'p> {
    /// A scalar local or parameter in frame slot `slot`.
    Scalar { slot: usize, ty: Ty },
    /// A stack array; its slot holds the pointer it decays to.
    Array { slot: usize, elem: Ty },
    /// A global array.
    Global { addr: u32, size: u32, elem: Ty },
    /// A named scalar constant.
    Const { value: u32, name: &'p str },
    /// No declaration in scope.
    Undefined(&'p str),
}

// The resolved program: `R`-prefixed mirrors of the AST nodes, names
// replaced by what they denote.

struct RFunction<'p> {
    name: &'p str,
    params: Vec<Ty>,
    /// Parameters first, then one slot per declaration.
    slots: usize,
    body: Vec<RStmt<'p>>,
}

struct RExpr<'p> {
    kind: RKind<'p>,
    line: usize,
}

enum RKind<'p> {
    Num(u32),
    Var(Var<'p>),
    /// `+` and `-`, which scale a pointer operand by its pointee.
    AddSub(BinOp, Box<RExpr<'p>>, Box<RExpr<'p>>, Elem),
    Bin(BinOp, Box<RExpr<'p>>, Box<RExpr<'p>>),
    Un(UnOp, Box<RExpr<'p>>),
    Index(Box<RExpr<'p>>, Box<RExpr<'p>>, Elem),
    Mulhu(Vec<RExpr<'p>>),
    Call(Result<usize, &'p str>, Vec<RExpr<'p>>),
    Cast(Ty, Box<RExpr<'p>>),
}

enum RStmt<'p> {
    DeclScalar { ty: Ty, slot: usize, init: Option<RExpr<'p>>, line: usize },
    DeclArray { elem: Ty, slot: usize, len: u32, line: usize },
    AssignVar { var: Var<'p>, rhs: RExpr<'p>, line: usize },
    AssignIndex { base: RExpr<'p>, idx: RExpr<'p>, elem: Elem, rhs: RExpr<'p>, line: usize },
    If { cond: RExpr<'p>, then_body: Vec<RStmt<'p>>, else_body: Vec<RStmt<'p>>, line: usize },
    While { cond: RExpr<'p>, body: Vec<RStmt<'p>>, step: Vec<RStmt<'p>>, line: usize },
    Return { value: Option<RExpr<'p>>, line: usize },
    Break,
    Continue,
    ExprStmt { expr: RExpr<'p>, line: usize },
}

/// Resolves one function's names, innermost lexical scope first.
struct Resolver<'a, 'p> {
    program: &'p Program,
    /// Function name to index: the first function of that name.
    functions: &'a HashMap<&'p str, usize>,
    /// Global array name to `(addr, size)`: the last array of that name.
    global_addrs: &'a HashMap<&'p str, (u32, u32)>,
    /// Declarations in scope, in declaration order.
    scopes: Vec<Vec<(&'p str, Var<'p>)>>,
    slots: usize,
}

impl<'p> Resolver<'_, 'p> {
    fn lookup(&self, name: &'p str) -> Var<'p> {
        for scope in self.scopes.iter().rev() {
            if let Some((_, var)) = scope.iter().rev().find(|(n, _)| *n == name) {
                return *var;
            }
        }
        if let Some(&(addr, size)) = self.global_addrs.get(name) {
            let elem = match self.program.global(name) {
                Some(Global::ConstArray { elem, .. }) | Some(Global::StaticArray { elem, .. }) => {
                    *elem
                }
                _ => Ty::U32,
            };
            return Var::Global { addr, size, elem };
        }
        if let Some(Global::ConstScalar { value, .. }) = self.program.global(name) {
            return Var::Const { value: *value, name };
        }
        Var::Undefined(name)
    }

    /// Declare `name` in the innermost scope, in a fresh slot.
    fn declare(&mut self, name: &'p str, var: impl FnOnce(usize) -> Var<'p>) -> usize {
        let slot = self.slots;
        self.slots += 1;
        self.scopes.last_mut().expect("scope stack never empty").push((name, var(slot)));
        slot
    }

    fn block(&mut self, body: &'p [Stmt]) -> Vec<RStmt<'p>> {
        self.scopes.push(Vec::new());
        let out = body.iter().map(|s| self.stmt(s)).collect();
        self.scopes.pop();
        out
    }

    fn stmt(&mut self, s: &'p Stmt) -> RStmt<'p> {
        match s {
            Stmt::DeclScalar { ty, name, init, line } => {
                // The initializer sees the scope before the declaration.
                let init = init.as_ref().map(|e| self.expr(e));
                let ty = *ty;
                let slot = self.declare(name, |slot| Var::Scalar { slot, ty });
                RStmt::DeclScalar { ty, slot, init, line: *line }
            }
            Stmt::DeclArray { elem, name, len, line } => {
                let elem = *elem;
                let slot = self.declare(name, |slot| Var::Array { slot, elem });
                RStmt::DeclArray { elem, slot, len: *len, line: *line }
            }
            Stmt::Assign { lv, rhs, line } => {
                let rhs = self.expr(rhs);
                match lv {
                    LValue::Var(name) => {
                        RStmt::AssignVar { var: self.lookup(name), rhs, line: *line }
                    }
                    LValue::Index(base, idx) => RStmt::AssignIndex {
                        elem: self.elem(base, *line),
                        base: self.expr(base),
                        idx: self.expr(idx),
                        rhs,
                        line: *line,
                    },
                }
            }
            Stmt::If { cond, then_body, else_body, line } => RStmt::If {
                cond: self.expr(cond),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
                line: *line,
            },
            Stmt::While { cond, body, step, line } => RStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
                step: self.block(step),
                line: *line,
            },
            Stmt::Return { value, line } => {
                RStmt::Return { value: value.as_ref().map(|e| self.expr(e)), line: *line }
            }
            Stmt::Break { .. } => RStmt::Break,
            Stmt::Continue { .. } => RStmt::Continue,
            Stmt::ExprStmt { expr, line } => RStmt::ExprStmt { expr: self.expr(expr), line: *line },
        }
    }

    fn expr(&self, e: &'p Expr) -> RExpr<'p> {
        let sub = |e: &'p Expr| Box::new(self.expr(e));
        let kind = match &e.kind {
            ExprKind::Num(v) => RKind::Num(*v),
            ExprKind::Var(name) => RKind::Var(self.lookup(name)),
            ExprKind::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => {
                RKind::AddSub(*op, sub(a), sub(b), self.elem(e, e.line))
            }
            ExprKind::Bin(op, a, b) => RKind::Bin(*op, sub(a), sub(b)),
            ExprKind::Un(op, a) => RKind::Un(*op, sub(a)),
            ExprKind::Index(base, idx) => {
                RKind::Index(sub(base), sub(idx), self.elem(base, e.line))
            }
            ExprKind::Call(name, args) => {
                let args = args.iter().map(|a| self.expr(a)).collect();
                if name == "mulhu" {
                    RKind::Mulhu(args)
                } else {
                    RKind::Call(self.functions.get(name.as_str()).copied().ok_or(name), args)
                }
            }
            ExprKind::Cast(ty, inner) => RKind::Cast(*ty, sub(inner)),
        };
        RExpr { kind, line: e.line }
    }

    /// The pointee type of a pointer-typed expression from its syntactic
    /// shape, or the error asking for it at `line` reports.
    fn elem(&self, e: &'p Expr, line: usize) -> Elem {
        self.pointee(e, line).map_err(Box::new)
    }

    fn pointee(&self, e: &'p Expr, line: usize) -> Result<Ty, LcError> {
        match &e.kind {
            ExprKind::Var(name) => match self.lookup(name) {
                Var::Scalar { ty, .. } if ty.is_ptr() => Ok(ty.deref()),
                Var::Array { elem, .. } | Var::Global { elem, .. } => Ok(elem),
                Var::Undefined(name) => Err(undefined_variable(name, line)),
                _ => Err(LcError::new(line, format!("`{name}` is not a pointer"))),
            },
            ExprKind::Cast(ty, _) if ty.is_ptr() => Ok(ty.deref()),
            ExprKind::Bin(BinOp::Add, a, b) | ExprKind::Bin(BinOp::Sub, a, b) => {
                self.pointee(a, line).or_else(|_| self.pointee(b, line))
            }
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
}

fn undefined_variable(name: &str, line: usize) -> LcError {
    LcError::new(line, format!("undefined variable `{name}`"))
}

fn elem_size(elem: Ty) -> u32 {
    if elem == Ty::U32 {
        4
    } else {
        1
    }
}

impl<'p> Interp<'p> {
    /// Create an interpreter for `program`, resolving its names. The
    /// program must already be type-checked.
    pub fn new(program: &'p Program) -> Self {
        let mut global_addrs = HashMap::new();
        let mut next = GLOBAL_BASE;
        for g in &program.globals {
            let size = match g {
                Global::ConstArray { elem, values, .. } => values.len() as u32 * elem_size(*elem),
                Global::StaticArray { elem, len, .. } => len * elem_size(*elem),
                Global::ConstScalar { .. } => continue,
            };
            global_addrs.insert(g.name(), (next, size));
            next = next.wrapping_add((size + 3) & !3);
        }
        let mut globals_mem = Memory::default();
        for g in &program.globals {
            if let Global::ConstArray { elem, name, values, .. } = g {
                let (addr, _) = global_addrs[name.as_str()];
                match elem {
                    Ty::U32 => {
                        for (i, v) in values.iter().enumerate() {
                            globals_mem.store_u32(addr + 4 * i as u32, *v);
                        }
                    }
                    _ => {
                        for (i, v) in values.iter().enumerate() {
                            globals_mem.store_u8(addr + i as u32, *v as u8);
                        }
                    }
                }
            }
        }
        let mut indices = HashMap::new();
        for (i, f) in program.functions.iter().enumerate() {
            indices.entry(f.name.as_str()).or_insert(i);
        }
        let functions = program
            .functions
            .iter()
            .map(|f| {
                let params = f
                    .params
                    .iter()
                    .enumerate()
                    .map(|(slot, p)| (p.name.as_str(), Var::Scalar { slot, ty: p.ty }))
                    .collect();
                let mut r = Resolver {
                    program,
                    functions: &indices,
                    global_addrs: &global_addrs,
                    scopes: vec![params],
                    slots: f.params.len(),
                };
                let body = r.block(&f.body);
                RFunction {
                    name: &f.name,
                    params: f.params.iter().map(|p| p.ty).collect(),
                    slots: r.slots,
                    body,
                }
            })
            .collect();
        Interp { functions, globals_mem, fuel: 500_000_000 }
    }

    fn state(&self) -> State<'_, 'p> {
        State {
            mem: self.globals_mem.clone(),
            fuel: self.fuel,
            functions: &self.functions,
            stack_next: STACK_BASE,
            call_depth: 0,
            locals: Vec::new(),
            base: 0,
        }
    }

    /// Call `name` with the given arguments in a fresh memory containing
    /// only the globals, returning the result value.
    ///
    /// Useful for testing individual functions; buffers must be created
    /// via [`Interp::call_with_buffers`].
    pub fn call(&self, name: &str, args: &[u32]) -> Result<u32, LcError> {
        let mut st = self.state();
        st.locals.extend(args.iter().map(|&v| Value::Int(v)));
        let r = st.call_named(name)?;
        Ok(r.raw())
    }

    /// Call `name(buffers...)` where each argument is a byte buffer passed
    /// as a bounded pointer; returns the final contents of every buffer.
    pub fn call_with_buffers(
        &self,
        name: &str,
        buffers: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, LcError> {
        let mut st = self.state();
        let mut next = HEAP_BASE;
        for buf in buffers {
            st.mem.store_bytes(next, buf);
            st.locals.push(Value::Ptr { addr: next, lo: next, hi: next + buf.len() as u32 });
            next += ((buf.len() as u32) + 15) & !15;
        }
        let ptrs = st.locals.clone();
        st.call_named(name)?;
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

struct State<'i, 'p> {
    mem: Memory,
    fuel: u64,
    functions: &'i [RFunction<'p>],
    stack_next: u32,
    call_depth: u32,
    /// Every live frame's slots, innermost last. A call's arguments are
    /// pushed here and become its first slots.
    locals: Vec<Value>,
    /// Where the running function's slots start in `locals`.
    base: usize,
}

impl<'i, 'p> State<'i, 'p> {
    fn burn(&mut self, line: usize) -> Result<(), LcError> {
        if self.fuel == 0 {
            return Err(LcError::new(line, "interpreter out of fuel"));
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Call the first function named `name` on the arguments already in
    /// `locals` (a top-level call, at line 0).
    fn call_named(&mut self, name: &str) -> Result<Value, LcError> {
        let functions = self.functions;
        let f = functions
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| LcError::new(0, format!("undefined function `{name}`")))?;
        self.call_function(f, 0, 0)
    }

    /// Call `f` on the arguments in `locals[args..]`.
    fn call_function(
        &mut self,
        f: &'i RFunction<'p>,
        args: usize,
        line: usize,
    ) -> Result<Value, LcError> {
        if f.params.len() != self.locals.len() - args {
            return Err(LcError::new(line, format!("arity mismatch calling `{}`", f.name)));
        }
        if self.call_depth > 256 {
            return Err(LcError::new(line, "call depth exceeded"));
        }
        self.call_depth += 1;
        let saved_stack = self.stack_next;
        for (slot, ty) in self.locals[args..].iter_mut().zip(&f.params) {
            if let (Ty::U8, Value::Int(v)) = (ty, *slot) {
                *slot = Value::Int(v & 0xFF);
            }
        }
        self.locals.resize(args + f.slots, Value::Int(0));
        let caller = std::mem::replace(&mut self.base, args);
        let flow = self.exec_block(&f.body)?;
        self.base = caller;
        self.locals.truncate(args);
        self.stack_next = saved_stack;
        self.call_depth -= 1;
        match flow {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Int(0)),
        }
    }

    fn exec_block(&mut self, body: &'i [RStmt<'p>]) -> Result<Flow, LcError> {
        let saved_stack = self.stack_next;
        let mut result = Flow::Normal;
        for s in body {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => {
                    result = other;
                    break;
                }
            }
        }
        self.stack_next = saved_stack;
        Ok(result)
    }

    fn exec_stmt(&mut self, s: &'i RStmt<'p>) -> Result<Flow, LcError> {
        match s {
            RStmt::DeclScalar { ty, slot, init, line } => {
                self.burn(*line)?;
                let v = match init {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                let v = if *ty == Ty::U8 { Value::Int(v.int(*line)? & 0xFF) } else { v };
                self.locals[self.base + slot] = v;
                Ok(Flow::Normal)
            }
            RStmt::DeclArray { elem, slot, len, line } => {
                self.burn(*line)?;
                let size = len * elem_size(*elem);
                let addr = self.stack_next;
                // Zero the freshly allocated stack array: reusing stack
                // addresses across scopes must not resurrect old contents.
                for i in 0..size {
                    self.mem.store_u8(addr + i, 0);
                }
                self.stack_next = self.stack_next.wrapping_add((size + 3) & !3);
                self.locals[self.base + slot] =
                    Value::Ptr { addr, lo: addr, hi: addr.wrapping_add(size) };
                Ok(Flow::Normal)
            }
            RStmt::AssignVar { var, rhs, line } => {
                self.burn(*line)?;
                let v = self.eval(rhs)?;
                match *var {
                    Var::Scalar { slot, ty } => {
                        let v = if ty == Ty::U8 { Value::Int(v.int(*line)? & 0xFF) } else { v };
                        self.locals[self.base + slot] = v;
                        Ok(Flow::Normal)
                    }
                    Var::Array { .. } | Var::Global { .. } => {
                        Err(LcError::new(*line, "cannot assign to array"))
                    }
                    Var::Const { name, .. } => {
                        Err(LcError::new(*line, format!("cannot assign to global `{name}`")))
                    }
                    Var::Undefined(name) => Err(undefined_variable(name, *line)),
                }
            }
            RStmt::AssignIndex { base, idx, elem, rhs, line } => {
                self.burn(*line)?;
                let v = self.eval(rhs)?;
                let (addr, elem) = self.elem_addr(base, idx, elem, *line)?;
                match elem {
                    Ty::U32 => self.mem.store_u32(addr, v.raw()),
                    _ => self.mem.store_u8(addr, v.raw() as u8),
                }
                Ok(Flow::Normal)
            }
            RStmt::If { cond, then_body, else_body, line } => {
                self.burn(*line)?;
                let c = self.eval(cond)?.int(*line)?;
                if c != 0 {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                }
            }
            RStmt::While { cond, body, step, line } => loop {
                self.burn(*line)?;
                let c = self.eval(cond)?.int(*line)?;
                if c == 0 {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    r @ Flow::Return(_) => return Ok(r),
                }
                match self.exec_block(step)? {
                    Flow::Normal => {}
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Continue => {}
                    r @ Flow::Return(_) => return Ok(r),
                }
            },
            RStmt::Return { value, line } => {
                self.burn(*line)?;
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            RStmt::Break => Ok(Flow::Break),
            RStmt::Continue => Ok(Flow::Continue),
            RStmt::ExprStmt { expr, line } => {
                self.burn(*line)?;
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Compute the checked address of `base[idx]` and the element type.
    fn elem_addr(
        &mut self,
        base: &'i RExpr<'p>,
        idx: &'i RExpr<'p>,
        elem: &Elem,
        line: usize,
    ) -> Result<(u32, Ty), LcError> {
        let b = self.eval(base)?;
        let i = self.eval(idx)?.int(line)?;
        let (addr, lo, hi) = match b {
            Value::Ptr { addr, lo, hi } => (addr, lo, hi),
            Value::Int(_) => return Err(LcError::new(line, "cannot index a non-pointer")),
        };
        let elem = pointee(elem)?;
        let size = elem_size(elem);
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

    fn eval(&mut self, e: &'i RExpr<'p>) -> Result<Value, LcError> {
        let line = e.line;
        self.burn(line)?;
        match &e.kind {
            RKind::Num(v) => Ok(Value::Int(*v)),
            RKind::Var(var) => match *var {
                Var::Scalar { slot, .. } | Var::Array { slot, .. } => {
                    Ok(self.locals[self.base + slot])
                }
                Var::Global { addr, size, .. } => {
                    Ok(Value::Ptr { addr, lo: addr, hi: addr.wrapping_add(size) })
                }
                Var::Const { value, .. } => Ok(Value::Int(value)),
                Var::Undefined(name) => Err(undefined_variable(name, line)),
            },
            RKind::Bin(BinOp::LAnd, a, b) => {
                let va = self.eval(a)?.int(line)?;
                if va == 0 {
                    return Ok(Value::Int(0));
                }
                let vb = self.eval(b)?.int(line)?;
                Ok(Value::Int((vb != 0) as u32))
            }
            RKind::Bin(BinOp::LOr, a, b) => {
                let va = self.eval(a)?.int(line)?;
                if va != 0 {
                    return Ok(Value::Int(1));
                }
                let vb = self.eval(b)?.int(line)?;
                Ok(Value::Int((vb != 0) as u32))
            }
            RKind::AddSub(op, a, b, elem) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                // Pointer arithmetic with scaling.
                match (op, va, vb) {
                    (BinOp::Add, Value::Ptr { addr, lo, hi }, Value::Int(n))
                    | (BinOp::Add, Value::Int(n), Value::Ptr { addr, lo, hi }) => {
                        let size = elem_size(pointee(elem)?);
                        Ok(Value::Ptr { addr: addr.wrapping_add(n.wrapping_mul(size)), lo, hi })
                    }
                    (BinOp::Sub, Value::Ptr { addr, lo, hi }, Value::Int(n)) => {
                        let size = elem_size(pointee(elem)?);
                        Ok(Value::Ptr { addr: addr.wrapping_sub(n.wrapping_mul(size)), lo, hi })
                    }
                    _ => arith(*op, va.raw(), vb.raw(), line),
                }
            }
            RKind::Bin(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                arith(*op, va.raw(), vb.raw(), line)
            }
            RKind::Un(op, a) => {
                let v = self.eval(a)?.int(line)?;
                let r = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                    UnOp::LNot => (v == 0) as u32,
                };
                Ok(Value::Int(r))
            }
            RKind::Index(base, idx, elem) => {
                let (addr, elem) = self.elem_addr(base, idx, elem, line)?;
                let v = match elem {
                    Ty::U32 => self.mem.load_u32(addr),
                    _ => self.mem.load_u8(addr) as u32,
                };
                Ok(Value::Int(v))
            }
            RKind::Mulhu(args) => {
                let at = self.push_args(args)?;
                let a = self.locals[at].int(line)? as u64;
                let b = self.locals[at + 1].int(line)? as u64;
                self.locals.truncate(at);
                Ok(Value::Int(((a * b) >> 32) as u32))
            }
            RKind::Call(callee, args) => {
                let at = self.push_args(args)?;
                match callee {
                    Ok(f) => {
                        let functions = self.functions;
                        self.call_function(&functions[*f], at, line)
                    }
                    Err(name) => Err(LcError::new(line, format!("undefined function `{name}`"))),
                }
            }
            RKind::Cast(ty, inner) => {
                let v = self.eval(inner)?;
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

    /// Evaluate `args` in order onto `locals`; returns where they start.
    fn push_args(&mut self, args: &'i [RExpr<'p>]) -> Result<usize, LcError> {
        let at = self.locals.len();
        for a in args {
            let v = self.eval(a)?;
            self.locals.push(v);
        }
        Ok(at)
    }
}

fn pointee(elem: &Elem) -> Result<Ty, LcError> {
    elem.clone().map_err(|e| *e)
}

/// A binary operator other than `&&`/`||` on raw values.
fn arith(op: BinOp, x: u32, y: u32, line: usize) -> Result<Value, LcError> {
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
        BinOp::LAnd | BinOp::LOr => unreachable!("short-circuit operators are evaluated lazily"),
    };
    Ok(Value::Int(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn run(src: &str, f: &str, args: &[u32]) -> Result<u32, LcError> {
        let p = frontend(src).unwrap();
        let i = Interp::new(&p);
        i.call(f, args)
    }

    #[test]
    fn arithmetic_and_calls() {
        let src = "
            u32 square(u32 x) { return x * x; }
            u32 f(u32 a, u32 b) { return square(a) + square(b); }
        ";
        assert_eq!(run(src, "f", &[3, 4]).unwrap(), 25);
    }

    #[test]
    fn loops_and_arrays() {
        let src = "
            u32 fib(u32 n) {
                u32 a[16];
                a[0] = 0;
                a[1] = 1;
                for (u32 i = 2; i <= n; i = i + 1) {
                    a[i] = a[i - 1] + a[i - 2];
                }
                return a[n];
            }
        ";
        assert_eq!(run(src, "fib", &[10]).unwrap(), 55);
    }

    #[test]
    fn globals_const_arrays() {
        let src = "
            const u32 K[4] = {10, 20, 30, 40};
            const u32 LEN = 4;
            u32 sum() {
                u32 s = 0;
                for (u32 i = 0; i < LEN; i = i + 1) { s = s + K[i]; }
                return s;
            }
        ";
        assert_eq!(run(src, "sum", &[]).unwrap(), 100);
    }

    #[test]
    fn out_of_bounds_is_caught() {
        let src = "
            u32 oops(u32 i) {
                u32 a[4];
                return a[i];
            }
        ";
        assert!(run(src, "oops", &[4]).is_err());
        assert!(run(src, "oops", &[3]).is_ok());
        // Huge index that wraps around must also be caught.
        assert!(run(src, "oops", &[0x4000_0000]).is_err());
    }

    #[test]
    fn buffers_roundtrip() {
        let src = "
            void handle(u8* state, u8* cmd, u8* resp) {
                for (u32 i = 0; i < 4; i = i + 1) {
                    resp[i] = (u8)(cmd[i] + state[i]);
                }
                state[0] = (u8)(state[0] + 1);
            }
        ";
        let p = frontend(src).unwrap();
        let i = Interp::new(&p);
        let (st, resp) = i.step(&[1, 1, 1, 1], &[10, 20, 30, 40], 4).unwrap();
        assert_eq!(resp, vec![11, 21, 31, 41]);
        assert_eq!(st, vec![2, 1, 1, 1]);
    }

    #[test]
    fn pointer_casts_and_word_access() {
        let src = "
            void handle(u8* state, u8* cmd, u8* resp) {
                u32* w = (u32*)cmd;
                u32 v = w[0];
                u32* r = (u32*)resp;
                r[0] = v * 2;
            }
        ";
        let p = frontend(src).unwrap();
        let i = Interp::new(&p);
        let (_, resp) = i.step(&[0; 4], &[0x10, 0, 0, 0], 4).unwrap();
        assert_eq!(resp, vec![0x20, 0, 0, 0]);
    }

    #[test]
    fn short_circuit_semantics() {
        let src = "
            u32 f(u32 a) {
                u32 c = 0;
                if (a != 0 && 100 / a > 10) { c = 1; }
                return c;
            }
        ";
        // a == 0 must not evaluate 100/a.
        assert_eq!(run(src, "f", &[0]).unwrap(), 0);
        assert_eq!(run(src, "f", &[5]).unwrap(), 1);
        assert_eq!(run(src, "f", &[50]).unwrap(), 0);
    }

    #[test]
    fn division_by_zero_is_error() {
        let src = "u32 f(u32 a) { return 10 / a; }";
        assert!(run(src, "f", &[0]).is_err());
        assert_eq!(run(src, "f", &[2]).unwrap(), 5);
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let src = "u32 f() { while (1) { } return 0; }";
        let p = frontend(src).unwrap();
        let mut i = Interp::new(&p);
        i.fuel = 10_000;
        assert!(i.call("f", &[]).is_err());
    }

    #[test]
    fn break_continue() {
        let src = "
            u32 f() {
                u32 s = 0;
                for (u32 i = 0; i < 10; i = i + 1) {
                    if (i == 3) { continue; }
                    if (i == 6) { break; }
                    s = s + i;
                }
                return s;
            }
        ";
        // 0+1+2+4+5 = 12
        assert_eq!(run(src, "f", &[]).unwrap(), 12);
    }

    #[test]
    fn u8_truncation() {
        let src = "
            u32 f(u32 x) {
                u8 b = x;
                return b + 1;
            }
        ";
        assert_eq!(run(src, "f", &[0x1FF]).unwrap(), 0x100);
    }

    #[test]
    fn stack_arrays_are_zeroed() {
        let src = "
            u32 taint() {
                u32 a[4];
                a[0] = 0xdeadbeef; a[1] = 1; a[2] = 2; a[3] = 3;
                return 0;
            }
            u32 f() {
                u32 x = taint();
                u32 b[4];
                return b[0] + x;
            }
        ";
        assert_eq!(run(src, "f", &[]).unwrap(), 0);
    }
}
