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

/// A memory region, the granularity of the content-taint summary.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// A points-to set. `Rc`-shared: register reads and joins clone it
/// far more often than a union grows it.
type RegionSet = Rc<BTreeSet<Region>>;

/// The abstract value of a virtual register.
#[derive(Clone, Debug, Default)]
struct AbsVal {
    /// `Some(provenance)` when the value may be secret-derived.
    /// Shared: provenance strings are cloned on every read and join.
    secret: Option<Rc<str>>,
    /// Regions this value may point into (empty: not a pointer).
    pts: RegionSet,
}

impl AbsVal {
    /// A clean pointer into exactly `r`.
    fn points_to(r: Region) -> AbsVal {
        AbsVal { secret: None, pts: Rc::new(BTreeSet::from([r])) }
    }

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

    /// Lattice identity (provenance strings are carried, not compared).
    fn same_lattice(&self, other: &AbsVal) -> bool {
        self.secret.is_some() == other.secret.is_some() && self.pts == other.pts
    }
}

type VMap = BTreeMap<VReg, AbsVal>;

fn join_maps(into: &mut VMap, from: &VMap) -> bool {
    let mut changed = false;
    for (v, val) in from {
        match into.get(v) {
            Some(old) => {
                let j = old.join(val);
                if !j.same_lattice(old) {
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

/// Memo key for a call: callee name plus the lattice shape of each
/// argument and the region-table epoch.
type CallKey = (String, Vec<(bool, RegionSet)>, u64);

struct IrLint<'p> {
    prog: &'p IrProgram,
    /// Region → provenance of its secret content. Absent = clean.
    /// `State` is pinned secret at construction.
    content: BTreeMap<Region, Rc<str>>,
    /// Bumped whenever `content` grows; memo entries key on it.
    epoch: u64,
    memo: HashMap<CallKey, AbsVal>,
    call_stack: Vec<String>,
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
    fn region_taint(&self, r: &Region) -> Option<Rc<str>> {
        self.content.get(r).cloned()
    }

    fn taint_region(&mut self, r: Region, why: Rc<str>) {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.content.entry(r) {
            slot.insert(why);
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

    fn analyze_function(&mut self, name: &str, args: Vec<AbsVal>) -> Result<AbsVal, LintError> {
        if self.call_stack.iter().any(|n| n == name) {
            return Err(LintError::Unsupported(format!(
                "recursive call to `{name}` (call stack: {})",
                self.call_stack.join(" -> ")
            )));
        }
        let key: CallKey = (
            name.to_string(),
            args.iter().map(|a| (a.secret.is_some(), a.pts.clone())).collect(),
            self.epoch,
        );
        if let Some(ret) = self.memo.get(&key) {
            self.memo_hits += 1;
            return Ok(ret.clone());
        }
        let f = self.prog.function(name).ok_or_else(|| LintError::NoEntry(name.to_string()))?;
        self.call_stack.push(name.to_string());
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
        let mut entry = VMap::new();
        for (i, &p) in f.params.iter().enumerate() {
            entry.insert(p, args.get(i).cloned().unwrap_or_default());
        }
        let nb = f.blocks.len();
        let mut in_states: Vec<Option<VMap>> = vec![None; nb];
        in_states[0] = Some(entry);
        let mut work = vec![0usize];
        let mut ret = AbsVal::default();
        while let Some(bi) = work.pop() {
            self.fixpoint_iters += 1;
            let Some(mut st) = in_states[bi].clone() else { continue };
            self.transfer(f, bi, &mut st)?;
            let block = &f.blocks[bi];
            let succs: Vec<usize> = match block.term.as_ref().expect("terminated") {
                Term::Jump(t) => vec![*t],
                Term::Br { then_b, else_b, .. } => vec![*then_b, *else_b],
                Term::Ret { value } => {
                    if let Some(v) = value {
                        if let Some(val) = st.get(v) {
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
    fn transfer(&mut self, f: &'p IrFunction, bi: usize, st: &mut VMap) -> Result<(), LintError> {
        let block = &f.blocks[bi];
        let get = |st: &VMap, v: VReg| st.get(&v).cloned().unwrap_or_default();
        for (i, inst) in block.insts.iter().enumerate() {
            let line = block.line_of(i);
            match inst {
                Inst::Const { dst, .. } => {
                    st.insert(*dst, AbsVal::default());
                }
                Inst::Copy { dst, src } => {
                    let v = get(st, *src);
                    st.insert(*dst, v);
                }
                Inst::Bin { op, dst, a, b } => {
                    let va = get(st, *a);
                    let vb = match b {
                        Operand::Reg(r) => get(st, *r),
                        Operand::Imm(_) => AbsVal::default(),
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
                    st.insert(*dst, va.join(&vb));
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
                    let mut loaded = AbsVal::default();
                    if av.pts.is_empty() {
                        loaded.secret = Some(Rc::from(format!(
                            "load via untracked pointer at {}:{line}",
                            f.name
                        )));
                    } else {
                        for r in av.pts.iter() {
                            if let Some(why) = self.region_taint(r) {
                                loaded.secret = Some(Rc::from(format!(
                                    "{why}, loaded from {} at {}:{line}",
                                    r.describe(),
                                    f.name
                                )));
                                break;
                            }
                        }
                    }
                    st.insert(*dst, loaded);
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
                            self.taint_region(Region::Unknown, why.clone());
                        }
                        for r in av.pts.iter() {
                            if *r != Region::State {
                                self.taint_region(r.clone(), why.clone());
                            }
                        }
                    }
                }
                Inst::AddrOfGlobal { dst, name } => {
                    st.insert(*dst, AbsVal::points_to(Region::Global(name.clone())));
                }
                Inst::AddrOfLocal { dst, slot } => {
                    st.insert(*dst, AbsVal::points_to(Region::Frame(f.name.clone(), *slot)));
                }
                Inst::Call { dst, func, args } => {
                    let argv: Vec<AbsVal> = args.iter().map(|&a| get(st, a)).collect();
                    let ret = self.analyze_function(func, argv)?;
                    if let Some(d) = dst {
                        st.insert(*d, ret);
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
    if prog.function(entry).is_none() {
        return Err(LintError::NoEntry(entry.to_string()));
    }
    let mut content = BTreeMap::new();
    content.insert(Region::State, Rc::from("secret handler state"));
    let mut lint = IrLint {
        prog,
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
        let seeds = seed_args(prog, entry);
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
fn seed_args(prog: &IrProgram, entry: &str) -> Vec<AbsVal> {
    let nparams = prog.function(entry).map(|f| f.params.len()).unwrap_or(0);
    (0..nparams)
        .map(|i| match i {
            0 => AbsVal::points_to(Region::State),
            1 => AbsVal::points_to(Region::Cmd),
            2 => AbsVal::points_to(Region::Resp),
            _ => AbsVal::default(),
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
}
