//! Forward taint analysis over littlec IR.
//!
//! The abstract value for a virtual register is a pair: *is it
//! secret-derived* (with a provenance string for the taint path) and
//! *which memory regions may it point into*. The analysis runs a
//! per-function worklist fixpoint over basic blocks, joins at merges
//! (the IR is not SSA — loop variables are reassigned in place), and
//! follows calls by analyzing the callee on the caller's abstract
//! arguments (memoized; recursion is outside the fragment).
//!
//! Memory is summarized per *region*: the secret state buffer, the
//! public command buffer, the response buffer, each global, and each
//! local-array frame slot (context-insensitively per function). A
//! region's content taint only ever goes clean → secret, so iterating
//! the whole analysis until the region table stops changing is a
//! terminating outer fixpoint.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use parfait_littlec::diag::{Diagnostic, Span};
use parfait_littlec::ir::{Inst, IrFunction, IrOp, IrProgram, Operand, Term, VReg};

use crate::latency_model::latency_model;
use crate::{Finding, Layer, LintError, RuleId};

/// A memory region, the granularity of the content-taint summary. The
/// analysis works on [`RegionId`]s; this is what an id names.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Region {
    /// The handler's secret state buffer (content pinned secret).
    State,
    /// The attacker-chosen command buffer.
    Cmd,
    /// The response buffer (declassified by specification).
    Resp,
    /// A global array, by name.
    Global(String),
    /// A local array frame slot, per function name.
    Frame(String, usize),
    /// The target of a pointer the analysis lost track of.
    Unknown,
}

impl Region {
    fn describe(&self) -> String {
        match self {
            Region::State => "state".into(),
            Region::Cmd => "cmd".into(),
            Region::Resp => "resp".into(),
            Region::Global(g) => format!("global `{g}`"),
            Region::Frame(f, s) => format!("{f} frame slot {s}"),
            Region::Unknown => "untracked memory".into(),
        }
    }
}

/// A [`Region`] interned by [`Regions`]. Ids sort as their regions do
/// (state < cmd < resp < globals by name < frame slots by function and
/// slot < unknown), so a points-to set iterates in region order and the
/// first tainted region it meets, which names a load's provenance, is
/// the same.
type RegionId = u32;

const STATE: RegionId = 0;
const CMD: RegionId = 1;
const RESP: RegionId = 2;

/// A points-to set. `Rc`-shared: register reads and joins clone it
/// far more often than a union grows it.
type RegionSet = Rc<BTreeSet<RegionId>>;

/// A function's frame slots' region ids.
type FrameIds = HashMap<usize, RegionId>;

/// Every region a program can name, numbered in [`Region`] order.
struct Regions {
    /// Id → region.
    all: Vec<Region>,
    /// Id → the set holding just it, shared by every pointer into it.
    singletons: Vec<RegionSet>,
    /// The empty set, shared by every value that points nowhere.
    empty: RegionSet,
    globals: HashMap<String, RegionId>,
    /// Function → (frame slot → id).
    frames: HashMap<String, Rc<FrameIds>>,
}

impl Regions {
    fn of(prog: &IrProgram) -> Regions {
        let mut set = BTreeSet::from([Region::State, Region::Cmd, Region::Resp, Region::Unknown]);
        for f in &prog.functions {
            for inst in f.blocks.iter().flat_map(|b| &b.insts) {
                match inst {
                    Inst::AddrOfGlobal { name, .. } => set.insert(Region::Global(name.clone())),
                    Inst::AddrOfLocal { slot, .. } => {
                        set.insert(Region::Frame(f.name.clone(), *slot))
                    }
                    _ => false,
                };
            }
        }
        let all: Vec<Region> = set.into_iter().collect();
        let (mut globals, mut frames) = (HashMap::new(), HashMap::<String, FrameIds>::new());
        for (id, r) in all.iter().enumerate() {
            match r {
                Region::Global(g) => {
                    globals.insert(g.clone(), id as RegionId);
                }
                Region::Frame(f, slot) => {
                    frames.entry(f.clone()).or_default().insert(*slot, id as RegionId);
                }
                _ => {}
            }
        }
        let frames = frames.into_iter().map(|(f, ids)| (f, Rc::new(ids))).collect();
        let singletons = (0..all.len() as RegionId).map(|r| Rc::new(BTreeSet::from([r]))).collect();
        Regions { all, singletons, empty: RegionSet::default(), globals, frames }
    }

    /// A clean pointer into exactly `r`.
    fn points_to(&self, r: RegionId) -> AbsVal {
        AbsVal { secret: None, pts: self.singletons[r as usize].clone() }
    }

    /// A clean value that points nowhere: a constant, or a register no
    /// path has assigned.
    fn clean(&self) -> AbsVal {
        AbsVal { secret: None, pts: self.empty.clone() }
    }

    fn unknown(&self) -> RegionId {
        self.all.len() as RegionId - 1
    }
}

/// The abstract value of a virtual register.
#[derive(Clone, Debug)]
struct AbsVal {
    /// `Some(provenance)` when the value may be secret-derived.
    /// Shared: provenance strings are cloned on every read and join.
    secret: Option<Rc<str>>,
    /// Regions this value may point into (empty: not a pointer).
    pts: RegionSet,
}

impl AbsVal {
    fn join(&self, other: &AbsVal) -> AbsVal {
        let pts = if other.pts.is_subset(&self.pts) {
            self.pts.clone()
        } else if self.pts.is_subset(&other.pts) {
            other.pts.clone()
        } else {
            Rc::new(self.pts.union(&other.pts).cloned().collect())
        };
        AbsVal { secret: self.secret.clone().or_else(|| other.secret.clone()), pts }
    }

    /// Whether `self.join(other)` differs from `self` in lattice shape:
    /// `other` adds secrecy or a region outside `self`'s points-to set.
    /// (Provenance strings are carried, not compared.)
    fn grown_by(&self, other: &AbsVal) -> bool {
        other.secret.is_some() && self.secret.is_none()
            || !Rc::ptr_eq(&other.pts, &self.pts) && !other.pts.is_subset(&self.pts)
    }
}

/// A function's register map, indexed by [`VReg`] and sized from
/// [`IrFunction::nvregs`]; `None` is a register not yet assigned on
/// any path into this point.
type VMap = Vec<Option<AbsVal>>;

/// Join `from` into `into`; true when some register's lattice shape
/// changed. A slot whose join would keep `into`'s shape (no new
/// secrecy, no new region) is skipped without building the joined
/// value, so its provenance stays `into`'s.
fn join_maps(into: &mut VMap, from: &VMap) -> bool {
    let mut changed = false;
    for (slot, val) in into.iter_mut().zip(from) {
        let Some(val) = val else { continue };
        match slot {
            Some(old) => {
                if old.grown_by(val) {
                    *old = old.join(val);
                    changed = true;
                }
            }
            None => {
                *slot = Some(val.clone());
                changed = true;
            }
        }
    }
    changed
}

/// Memo key for a call: callee name plus the lattice shape of each
/// argument and the region-table epoch.
type CallKey<'p> = (&'p str, Vec<(bool, RegionSet)>, u64);

struct IrLint<'p> {
    prog: &'p IrProgram,
    regions: Regions,
    /// Region id → provenance of its secret content. `None` = clean.
    /// `State` is pinned secret at construction.
    content: Vec<Option<Rc<str>>>,
    /// Bumped whenever `content` grows; memo entries key on it.
    epoch: u64,
    memo: HashMap<CallKey<'p>, AbsVal>,
    call_stack: Vec<&'p str>,
    /// (rule, function, block, site) → finding; dedup across fixpoint
    /// iterations (values are monotone, so early firings stay valid).
    findings: BTreeMap<(RuleId, String, usize, usize), Finding>,
    /// Worklist pops across every function fixpoint (flushed to the
    /// metrics registry by [`lint_ir`], not per-pop).
    fixpoint_iters: u64,
    /// Summary-memo hits in `analyze_function`.
    memo_hits: u64,
}

impl<'p> IrLint<'p> {
    fn taint_region(&mut self, r: RegionId, why: Rc<str>) {
        let slot = &mut self.content[r as usize];
        if slot.is_none() {
            *slot = Some(why);
            self.epoch += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        rule: RuleId,
        f: &IrFunction,
        block: usize,
        site: usize,
        line: usize,
        message: String,
        taint: Vec<String>,
    ) {
        let key = (rule, f.name.clone(), block, site);
        self.findings.entry(key).or_insert_with(|| Finding {
            rule,
            layer: Layer::Ir,
            diagnostic: Diagnostic::new(rule.id(), Span::new(f.name.clone(), line), message),
            taint,
        });
    }

    fn analyze_function(&mut self, name: &'p str, args: Vec<AbsVal>) -> Result<AbsVal, LintError> {
        if self.call_stack.contains(&name) {
            return Err(LintError::Unsupported(format!(
                "recursive call to `{name}` (call stack: {})",
                self.call_stack.join(" -> ")
            )));
        }
        let key: CallKey =
            (name, args.iter().map(|a| (a.secret.is_some(), a.pts.clone())).collect(), self.epoch);
        if let Some(ret) = self.memo.get(&key) {
            self.memo_hits += 1;
            return Ok(ret.clone());
        }
        let f = self.prog.function(name).ok_or_else(|| LintError::NoEntry(name.to_string()))?;
        self.call_stack.push(name);
        let t0 = std::time::Instant::now();
        let result = self.function_fixpoint(f, args);
        parfait_telemetry::metrics::Metrics::global()
            .histogram_with("analyzer_fn_lint_us", &[("layer", "ir")])
            .record_duration(t0.elapsed());
        self.call_stack.pop();
        let ret = result?;
        self.memo.insert(key, ret.clone());
        Ok(ret)
    }

    fn function_fixpoint(
        &mut self,
        f: &'p IrFunction,
        args: Vec<AbsVal>,
    ) -> Result<AbsVal, LintError> {
        let mut entry: VMap = vec![None; f.nvregs as usize];
        for (i, &p) in f.params.iter().enumerate() {
            entry[p as usize] = Some(args.get(i).cloned().unwrap_or_else(|| self.regions.clean()));
        }
        let frames = self.regions.frames.get(&f.name).cloned().unwrap_or_default();
        let nb = f.blocks.len();
        let mut in_states: Vec<Option<VMap>> = vec![None; nb];
        in_states[0] = Some(entry);
        let mut work = vec![0usize];
        let mut ret = self.regions.clean();
        // One scratch map serves every pop, refilled in place.
        let mut st: VMap = Vec::new();
        while let Some(bi) = work.pop() {
            self.fixpoint_iters += 1;
            let Some(entry) = &in_states[bi] else { continue };
            st.clone_from(entry);
            self.transfer(f, &frames, bi, &mut st)?;
            let block = &f.blocks[bi];
            let succs: Vec<usize> = match block.term.as_ref().expect("terminated") {
                Term::Jump(t) => vec![*t],
                Term::Br { then_b, else_b, .. } => vec![*then_b, *else_b],
                Term::Ret { value } => {
                    if let Some(v) = value {
                        if let Some(val) = &st[*v as usize] {
                            ret = ret.join(val);
                        }
                    }
                    vec![]
                }
            };
            for s in succs {
                match &mut in_states[s] {
                    Some(old) => {
                        if join_maps(old, &st) {
                            work.push(s);
                        }
                    }
                    None => {
                        in_states[s] = Some(st.clone());
                        work.push(s);
                    }
                }
            }
        }
        Ok(ret)
    }

    /// Abstractly execute block `bi` from `st`, recording findings.
    /// `frames` maps `f`'s frame slots to their region ids.
    fn transfer(
        &mut self,
        f: &'p IrFunction,
        frames: &FrameIds,
        bi: usize,
        st: &mut VMap,
    ) -> Result<(), LintError> {
        let block = &f.blocks[bi];
        let clean = self.regions.clean();
        let get = |st: &VMap, v: VReg| st[v as usize].clone().unwrap_or_else(|| clean.clone());
        for (i, inst) in block.insts.iter().enumerate() {
            let line = block.line_of(i);
            match inst {
                Inst::Const { dst, .. } => {
                    st[*dst as usize] = Some(clean.clone());
                }
                Inst::Copy { dst, src } => {
                    let v = get(st, *src);
                    st[*dst as usize] = Some(v);
                }
                Inst::Bin { op, dst, a, b } => {
                    let va = get(st, *a);
                    let vb = match b {
                        Operand::Reg(r) => get(st, *r),
                        Operand::Imm(_) => clean.clone(),
                    };
                    // IR division lowers to the machine div/rem class;
                    // it is a `CT-LATENCY` sink only while some core's
                    // contract declares that class operand-dependent.
                    if matches!(op, IrOp::Divu | IrOp::Remu)
                        && latency_model().variable_latency(parfait_cores::InstrClass::Div)
                    {
                        if let Some(why) = va.secret.as_ref().or(vb.secret.as_ref()) {
                            self.record(
                                RuleId::SecretLatency,
                                f,
                                bi,
                                i,
                                line,
                                format!(
                                    "secret operand to variable-latency `{op:?}` in `{}`",
                                    f.name
                                ),
                                vec![
                                    why.to_string(),
                                    format!("{op:?} operand at {}:{line}", f.name),
                                ],
                            );
                        }
                    }
                    st[*dst as usize] = Some(va.join(&vb));
                }
                Inst::Load { dst, addr, .. } => {
                    let av = get(st, *addr);
                    if let Some(why) = &av.secret {
                        self.record(
                            RuleId::SecretIndex,
                            f,
                            bi,
                            i,
                            line,
                            format!("load at secret-dependent address in `{}`", f.name),
                            vec![why.to_string(), format!("load address at {}:{line}", f.name)],
                        );
                    }
                    let mut loaded = clean.clone();
                    if av.pts.is_empty() {
                        loaded.secret = Some(Rc::from(format!(
                            "load via untracked pointer at {}:{line}",
                            f.name
                        )));
                    } else {
                        for &r in av.pts.iter() {
                            if let Some(why) = &self.content[r as usize] {
                                loaded.secret = Some(Rc::from(format!(
                                    "{why}, loaded from {} at {}:{line}",
                                    self.regions.all[r as usize].describe(),
                                    f.name
                                )));
                                break;
                            }
                        }
                    }
                    st[*dst as usize] = Some(loaded);
                }
                Inst::Store { addr, src, .. } => {
                    let av = get(st, *addr);
                    let sv = get(st, *src);
                    if let Some(why) = &av.secret {
                        self.record(
                            RuleId::SecretIndex,
                            f,
                            bi,
                            i,
                            line,
                            format!("store at secret-dependent address in `{}`", f.name),
                            vec![why.to_string(), format!("store address at {}:{line}", f.name)],
                        );
                    }
                    if let Some(why) = &sv.secret {
                        if av.pts.is_empty() {
                            self.taint_region(self.regions.unknown(), why.clone());
                        }
                        for &r in av.pts.iter() {
                            if r != STATE {
                                self.taint_region(r, why.clone());
                            }
                        }
                    }
                }
                Inst::AddrOfGlobal { dst, name } => {
                    st[*dst as usize] = Some(self.regions.points_to(self.regions.globals[name]));
                }
                Inst::AddrOfLocal { dst, slot } => {
                    st[*dst as usize] = Some(self.regions.points_to(frames[slot]));
                }
                Inst::Call { dst, func, args } => {
                    let argv: Vec<AbsVal> = args.iter().map(|&a| get(st, a)).collect();
                    let ret = self.analyze_function(func, argv)?;
                    if let Some(d) = dst {
                        st[*d as usize] = Some(ret);
                    }
                }
            }
        }
        if let Some(Term::Br { cond, .. }) = block.term.as_ref() {
            let cv = get(st, *cond);
            if let Some(why) = &cv.secret {
                let line = block.term_line;
                self.record(
                    RuleId::SecretBranch,
                    f,
                    bi,
                    usize::MAX,
                    line,
                    format!("branch on secret-derived value in `{}`", f.name),
                    vec![why.to_string(), format!("branch condition at {}:{line}", f.name)],
                );
            }
        }
        Ok(())
    }
}

/// Run the IR-layer constant-time analysis on `prog`, seeding taint
/// from `entry`'s parameters per the Parfait handler ABI
/// (`handle(state, cmd, resp)` — state content is secret).
///
/// Returns the sorted findings; [`LintError`] when the program is
/// outside the analyzable fragment.
pub fn lint_ir(prog: &IrProgram, entry: &str) -> Result<Vec<Finding>, LintError> {
    let Some(f) = prog.function(entry) else {
        return Err(LintError::NoEntry(entry.to_string()));
    };
    let entry = f.name.as_str();
    let regions = Regions::of(prog);
    let mut content = vec![None; regions.all.len()];
    content[STATE as usize] = Some(Rc::from("secret handler state"));
    let mut lint = IrLint {
        prog,
        regions,
        content,
        epoch: 0,
        memo: HashMap::new(),
        call_stack: Vec::new(),
        findings: BTreeMap::new(),
        fixpoint_iters: 0,
        memo_hits: 0,
    };
    // Outer fixpoint over the region content table: stores may taint a
    // region that earlier loads already read; re-run until stable
    // (content only grows clean → secret, so this terminates).
    loop {
        let epoch0 = lint.epoch;
        lint.findings.clear();
        lint.memo.clear();
        let seeds = seed_args(prog, entry, &lint.regions);
        lint.analyze_function(entry, seeds)?;
        if lint.epoch == epoch0 {
            break;
        }
    }
    let metrics = parfait_telemetry::metrics::Metrics::global();
    metrics
        .counter_with("analyzer_fixpoint_iterations_total", &[("layer", "ir")])
        .add(lint.fixpoint_iters);
    metrics.counter_with("analyzer_memo_hits_total", &[("layer", "ir")]).add(lint.memo_hits);
    let mut findings: Vec<Finding> = lint.findings.into_values().collect();
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Abstract arguments for the handler entry: `state` points into the
/// secret state region, `cmd` into the public command buffer, `resp`
/// into the response buffer. Any further parameters are clean.
fn seed_args(prog: &IrProgram, entry: &str, regions: &Regions) -> Vec<AbsVal> {
    let nparams = prog.function(entry).map(|f| f.params.len()).unwrap_or(0);
    (0..nparams)
        .map(|i| match i {
            0 => regions.points_to(STATE),
            1 => regions.points_to(CMD),
            2 => regions.points_to(RESP),
            _ => regions.clean(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_littlec::ir::lower;

    fn lint_src(src: &str) -> Vec<Finding> {
        let p = parfait_littlec::frontend(src).unwrap();
        let ir = lower(&p).unwrap();
        lint_ir(&ir, "handle").unwrap()
    }

    fn rules(findings: &[Finding]) -> Vec<RuleId> {
        let mut r: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        r.sort();
        r.dedup();
        r
    }

    #[test]
    fn masked_select_is_clean() {
        let f = lint_src(
            "void handle(u8* state, u8* cmd, u8* resp) {
                u32 s = state[0];
                u32 m = 0 - (cmd[0] & 1);
                resp[0] = (u8)(s & m);
            }",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn secret_branch_fires_with_span() {
        let f = lint_src(
            "void handle(u8* state, u8* cmd, u8* resp) {
                u32 s = state[0];
                if (s) { resp[0] = 1; }
            }",
        );
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
        assert_eq!(f[0].diagnostic.span.function, "handle");
        assert_eq!(f[0].diagnostic.span.line, 3);
    }

    #[test]
    fn secret_loop_bound_fires_branch_rule() {
        let f = lint_src(
            "void handle(u8* state, u8* cmd, u8* resp) {
                u32 n = state[0];
                u32 i = 0;
                while (i < n) { i = i + 1; }
                resp[0] = (u8)i;
            }",
        );
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
    }

    #[test]
    fn secret_index_fires_mem_rule() {
        let f = lint_src(
            "const u8 T[4] = {1, 2, 3, 4};
            void handle(u8* state, u8* cmd, u8* resp) {
                resp[0] = T[state[0] & 3];
            }",
        );
        assert_eq!(rules(&f), vec![RuleId::SecretIndex]);
    }

    #[test]
    fn division_by_secret_fires_latency_rule() {
        let f = lint_src(
            "void handle(u8* state, u8* cmd, u8* resp) {
                u32 s = state[0];
                resp[0] = (u8)(100 / (s + 1));
            }",
        );
        assert_eq!(rules(&f), vec![RuleId::SecretLatency]);
    }

    #[test]
    fn taint_flows_through_calls_and_frames() {
        // The secret flows through a helper's return value and a local
        // array before reaching the branch.
        let f = lint_src(
            "u32 pick(u8* p) { return p[0]; }
            void handle(u8* state, u8* cmd, u8* resp) {
                u32 buf[2];
                buf[0] = pick(state);
                if (buf[1] + buf[0]) { resp[0] = 1; }
            }",
        );
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
    }

    #[test]
    fn const_global_exponent_scan_is_clean() {
        // The mont_pow_pub pattern: branching on bits of a *public*
        // const-global exponent is fine.
        let f = lint_src(
            "const u8 E[4] = {1, 0, 1, 1};
            void handle(u8* state, u8* cmd, u8* resp) {
                u32 acc = 1;
                u32 s = state[0];
                u32 i = 0;
                while (i < 4) {
                    if (E[i]) { acc = acc * (s | 1); }
                    i = i + 1;
                }
                resp[0] = (u8)acc;
            }",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn secret_store_through_static_global_taints_later_loads() {
        let f = lint_src(
            "static u8 scratch[4];
            void handle(u8* state, u8* cmd, u8* resp) {
                scratch[0] = state[0];
                if (scratch[1]) { resp[0] = 1; }
            }",
        );
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
    }

    #[test]
    fn missing_entry_is_an_error() {
        let p = parfait_littlec::frontend("u32 f() { return 1; }").unwrap();
        let ir = lower(&p).unwrap();
        assert!(matches!(lint_ir(&ir, "handle"), Err(LintError::NoEntry(_))));
    }

    /// The `BTreeMap` register map the dense [`VMap`] replaced, kept as
    /// its oracle: an absent key is a register not yet assigned.
    type MapVMap = BTreeMap<VReg, AbsVal>;

    /// The replaced join: build every joined value, keep it when its
    /// lattice shape differs (provenance is carried, not compared).
    fn join_map_oracle(into: &mut MapVMap, from: &MapVMap) -> bool {
        let same_lattice =
            |a: &AbsVal, b: &AbsVal| a.secret.is_some() == b.secret.is_some() && a.pts == b.pts;
        let mut changed = false;
        for (v, val) in from {
            match into.get(v) {
                Some(old) => {
                    let j = old.join(val);
                    if !same_lattice(&j, old) {
                        into.insert(*v, j);
                        changed = true;
                    }
                }
                None => {
                    into.insert(*v, val.clone());
                    changed = true;
                }
            }
        }
        changed
    }

    /// Everything observable about a map: each assigned register's
    /// provenance text and points-to set.
    type Shape = Vec<(VReg, Option<String>, Vec<RegionId>)>;

    fn shape<'a>(vals: impl Iterator<Item = (VReg, &'a AbsVal)>) -> Shape {
        vals.map(|(v, a)| {
            (v, a.secret.as_deref().map(String::from), a.pts.iter().cloned().collect())
        })
        .collect()
    }

    fn dense_shape(m: &VMap) -> Shape {
        shape(m.iter().enumerate().filter_map(|(v, a)| Some((v as VReg, a.as_ref()?))))
    }

    #[test]
    fn dense_join_matches_the_btreemap_join() {
        let provs: Vec<Rc<str>> = ["p0", "p1", "p2"].into_iter().map(Rc::from).collect();
        let regions: [RegionId; 5] = [STATE, CMD, 3, 4, 5];
        // Shared sets (the join's pointer-equality fast path) beside
        // freshly built equal ones.
        let subsets: Vec<RegionSet> = (0..1u32 << regions.len())
            .map(|bits| {
                let set = regions.iter().enumerate().filter(|(i, _)| bits >> i & 1 == 1);
                Rc::new(set.map(|(_, r)| *r).collect())
            })
            .collect();
        let mut grown = 0;
        for seed in 0..64 {
            let mut rng = crate::Rng(seed);
            let n = 1 + rng.below(16) as usize;
            let mut dense: Vec<VMap> = vec![vec![None; n]; 3];
            let mut model: Vec<MapVMap> = vec![MapVMap::new(); 3];
            for step in 0..300 {
                let (i, j) = (rng.below(3) as usize, rng.below(3) as usize);
                let ctx = format!("seed {seed} step {step}");
                if rng.below(3) == 0 {
                    let v = rng.below(n as u64) as VReg;
                    let set = &subsets[rng.below(subsets.len() as u64) as usize];
                    let val = AbsVal {
                        secret: match rng.below(4) {
                            3 => None,
                            p => Some(provs[p as usize].clone()),
                        },
                        pts: if rng.below(2) == 0 { set.clone() } else { Rc::new((**set).clone()) },
                    };
                    dense[i][v as usize] = Some(val.clone());
                    model[i].insert(v, val);
                } else {
                    let (from_d, from_m) = (dense[j].clone(), model[j].clone());
                    let changed = join_maps(&mut dense[i], &from_d);
                    assert_eq!(changed, join_map_oracle(&mut model[i], &from_m), "{ctx}: changed");
                    grown += usize::from(changed);
                }
                for (d, m) in dense.iter().zip(&model) {
                    assert_eq!(dense_shape(d), shape(m.iter().map(|(v, a)| (*v, a))), "{ctx}");
                }
            }
        }
        assert!(grown > 1_000, "the walk must exercise growing joins: {grown}");
    }
}
