//! Abstract taint interpretation over assembled RV32IM firmware.
//!
//! The IR-layer analysis cannot see leaks *introduced by* the
//! compiler: `opt` rewrites branches, `regalloc` spills secrets to the
//! stack and reloads them, codegen materializes addresses. This module
//! re-checks the constant-time rules on the final instruction words,
//! recovering control flow with [`parfait_riscv::decode`] and running
//! a per-instruction dataflow fixpoint.
//!
//! The abstract machine tracks, per register: secrecy (with
//! provenance) and a *kind* — known constant, stack-pointer offset,
//! pointer into a named memory region, or unknown. The stack is
//! modeled byte-granularly relative to the entry `sp`, so spills and
//! reloads (including mixed-width `(u32*)` reads of byte arrays)
//! round-trip precisely; the bytes live in copy-on-write pages
//! ([`Stack`]) that forked states share until one of them writes.
//! Calls (`jal ra`) are analyzed by inlining: the callee runs on the
//! caller's abstract state and its joined return states continue at
//! the call's fall-through, which makes the single stack coordinate
//! system work across frames. Indirect jumps other than the
//! `jalr x0, ra, 0` return idiom are outside the fragment and reported
//! as [`LintError::Unsupported`].
//!
//! # The sparse interprocedural fixpoint
//!
//! The whole-program analysis is itself a fixpoint over two global
//! tables — the region content map (which memory regions hold secret
//! data) and the escape flag — because a store into a global may feed
//! a load analyzed earlier. Both tables grow monotonically, so the
//! driver re-runs the analysis until they stabilize.
//!
//! The dense driver ([`lint_asm_dense`]) recomputes every function
//! from scratch on every pass, which multiplies the cost of the
//! biggest firmwares by the pass count. The sparse driver (the
//! default, [`lint_asm`]) instead memoizes each
//! `(function, abstract entry state)` call **across passes**, keyed by
//! a *dependency footprint*: the set of regions the call observed as
//! clean, and whether it observed the escape flag unset. A memo entry
//! stays valid exactly while its footprint still holds — only calls
//! that actually depended on a table entry that later changed are
//! re-analyzed, everything else *replays* its recorded effect list
//! (region taints, escape, findings) in original execution order.
//! Because every effect application is first-writer-wins and the
//! tables are monotone, a replayed call is observationally identical
//! to re-running it, so the sparse driver's findings are byte-identical
//! to the dense oracle's (proved differentially over the lint corpus).

use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use parfait_cores::InstrClass;
use parfait_littlec::diag::{Diagnostic, Span};
use parfait_riscv::asm::Program;
use parfait_riscv::decode::decode;
use parfait_riscv::isa::{AluOp, Instr, LoadOp, Reg, StoreOp};

use crate::latency_model::latency_model;
use crate::{Finding, Layer, LintError, RuleId};

/// A memory region, the granularity of the content-taint summary.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum MRegion {
    /// The secret state buffer (`a0` at entry; content pinned secret).
    State,
    /// The attacker-chosen command buffer (`a1` at entry).
    Cmd,
    /// The response buffer (`a2` at entry).
    Resp,
    /// A global in the data section, by symbol name.
    Global(String),
}

impl MRegion {
    fn describe(&self) -> String {
        match self {
            MRegion::State => "state".into(),
            MRegion::Cmd => "cmd".into(),
            MRegion::Resp => "resp".into(),
            MRegion::Global(g) => format!("global `{g}`"),
        }
    }
}

/// Interned region id: an index into [`AsmLint::regions`]. Ids are
/// assigned in [`MRegion`] sort order, so a set of ids iterates in the
/// same order a `BTreeSet<MRegion>` would — provenance strings built
/// from "the first tainted region of a set" come out byte-identical.
type Rid = u32;

/// An interned region set. `Rc`-shared: pointer kinds are cloned on
/// every join and most sets are singletons minted once at
/// [`AsmLint::new`].
type RegionSet = Rc<BTreeSet<Rid>>;

/// What a register value *is*, beyond its secrecy.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Kind {
    /// Nothing known.
    Top,
    /// A known 32-bit constant (from `lui`/`li`/`auipc` folding).
    Const(u32),
    /// `entry_sp + offset` — a resolvable stack address.
    Sp(i32),
    /// Somewhere on the stack, offset unknown (variable array index).
    SpAny,
    /// A pointer into one of these regions, at any offset.
    Mem(RegionSet),
}

/// The abstract value of a register or stack slot.
#[derive(Clone, Debug)]
struct AVal {
    /// `Some(provenance)` when the value may be secret-derived.
    /// Shared: provenance strings are cloned on every join.
    secret: Option<Rc<str>>,
    kind: Kind,
}

impl Default for AVal {
    fn default() -> AVal {
        AVal { secret: None, kind: Kind::Top }
    }
}

impl AVal {
    fn konst(v: u32) -> AVal {
        AVal { secret: None, kind: Kind::Const(v) }
    }

    fn join(&self, other: &AVal) -> AVal {
        AVal {
            secret: self.secret.clone().or_else(|| other.secret.clone()),
            kind: join_kind(&self.kind, &other.kind),
        }
    }

    fn same_lattice(&self, other: &AVal) -> bool {
        self.secret.is_some() == other.secret.is_some() && self.kind == other.kind
    }
}

fn join_kind(a: &Kind, b: &Kind) -> Kind {
    match (a, b) {
        _ if a == b => a.clone(),
        (Kind::Sp(_) | Kind::SpAny, Kind::Sp(_) | Kind::SpAny) => Kind::SpAny,
        (Kind::Mem(x), Kind::Mem(y)) => Kind::Mem(Rc::new(x.union(y).copied().collect())),
        _ => Kind::Top,
    }
}

/// One tracked stack byte: the abstract value of the store that wrote
/// it plus which *world* it belongs to. Spill/temp slots are addressed
/// directly off `sp`; local-array bytes are addressed through
/// materialized `sp+K` pointers. Variable-index accesses (unknown
/// stack offset) can only hit array bytes — littlec has no
/// address-taken spill slots and the analyzer assumes in-bounds
/// indexing (spatial memory safety is the other stages' job) — so
/// variable reads join array bytes and the blob, never spills.
///
/// A multi-byte store replicates its value across the covered bytes; a
/// load whose bytes all agree on one lattice value reconstructs it
/// (spill/reload round-trips, including across joins, stay precise),
/// anything else degrades to an unknown with the joined secrecy. Byte
/// reassembly of *numeric* constants written at a different width can
/// therefore be imprecise, but never in a way that drops taint.
#[derive(Clone, Debug)]
struct SByte {
    val: AVal,
    /// True when written through a pointer (array world) rather than
    /// directly off `sp` (spill/temp world).
    array: bool,
}

impl SByte {
    /// This byte joined with a never-written one: same secrecy and
    /// world, unknown contents.
    fn degraded(&self) -> SByte {
        SByte { val: AVal { secret: self.val.secret.clone(), kind: Kind::Top }, array: self.array }
    }
}

/// Bytes per [`Stack`] page: the unit of copy-on-write sharing.
const PAGE: i32 = 64;

/// One page of tracked stack bytes; slot `k` of page `p` is offset
/// `p * PAGE + k`, and `None` is a byte never written.
type Page = [Option<SByte>; PAGE as usize];

/// The tracked stack bytes of one state: fixed-size copy-on-write
/// pages under a page-index map. States forked from one another share
/// every page neither has written since, so a store copies one page
/// and a join skips each page both sides still share. No page is ever
/// empty, so equal contents always have equal page sets.
#[derive(Clone, Debug, Default)]
struct Stack {
    pages: BTreeMap<i32, Rc<Page>>,
}

impl Stack {
    /// Page index and slot of offset `o` (floored, so negative offsets
    /// land in negative pages).
    fn split(o: i32) -> (i32, usize) {
        (o.div_euclid(PAGE), o.rem_euclid(PAGE) as usize)
    }

    fn get(&self, o: i32) -> Option<&SByte> {
        let (p, k) = Stack::split(o);
        self.pages.get(&p)?[k].as_ref()
    }

    /// Store `val` into the `w` bytes at `o`: a multi-byte store
    /// replicates its value across the covered bytes.
    fn write(&mut self, o: i32, w: u8, val: &AVal, array: bool) {
        for o in o..o + w as i32 {
            let (p, k) = Stack::split(o);
            let page =
                self.pages.entry(p).or_insert_with(|| Rc::new(std::array::from_fn(|_| None)));
            Rc::make_mut(page)[k] = Some(SByte { val: val.clone(), array });
        }
    }

    /// Tracked bytes in ascending offset order.
    fn iter(&self) -> impl Iterator<Item = (i32, &SByte)> {
        self.pages.iter().flat_map(|(&p, page)| {
            page.iter()
                .enumerate()
                .filter_map(move |(k, b)| Some((p * PAGE + k as i32, b.as_ref()?)))
        })
    }

    /// The value `w` bytes at `o` reconstruct: the bytes' common
    /// lattice value when all are present and agree, else an unknown
    /// carrying the first secret byte's provenance.
    fn read(&self, o: i32, w: u8) -> AVal {
        if let Some(b0) = self.get(o) {
            if (1..w as i32).all(|k| self.get(o + k).is_some_and(|b| b.val.same_lattice(&b0.val))) {
                return b0.val.clone();
            }
        }
        let secret =
            (0..w as i32).filter_map(|k| self.get(o + k)).find_map(|b| b.val.secret.clone());
        AVal { secret, kind: Kind::Top }
    }

    /// Provenance of the lowest secret array-world byte: what a read at
    /// an unknown stack offset observes.
    fn array_secret(&self) -> Option<Rc<str>> {
        self.iter().filter(|(_, b)| b.array).find_map(|(_, b)| b.val.secret.clone())
    }

    /// Drop every byte below offset `s` (the current stack pointer),
    /// removing the pages this empties: the bytes belong to frames that
    /// have returned. Real code never reads below `sp`, and keeping the
    /// stale bytes makes call memoization keys needlessly unique.
    fn prune_below(&mut self, s: i32) {
        if self.iter().next().is_none_or(|(lo, _)| lo >= s) {
            return;
        }
        let (p, k) = Stack::split(s);
        self.pages = self.pages.split_off(&p);
        if let Some(page) = self.pages.get_mut(&p) {
            let page = Rc::make_mut(page);
            page[..k].fill(None);
            if page.iter().all(Option::is_none) {
                self.pages.remove(&p);
            }
        }
    }

    /// Join `from` into `self`; true when some byte's lattice shape
    /// changed. A byte missing on one side was never written there:
    /// clean, unknown contents — the join keeps the other side's
    /// secrecy and world but degrades its kind to `Top`.
    fn join(&mut self, from: &Stack) -> bool {
        let mut changed = false;
        for (p, page) in &mut self.pages {
            let other = from.pages.get(p);
            if other.is_some_and(|o| Rc::ptr_eq(o, page)) {
                continue;
            }
            let updates = join_slots(Some(page), other.map(|o| &**o));
            if !updates.is_empty() {
                let page = Rc::make_mut(page);
                for (k, b) in updates {
                    page[k] = Some(b);
                }
                changed = true;
            }
        }
        for (&p, other) in &from.pages {
            if let btree_map::Entry::Vacant(slot) = self.pages.entry(p) {
                let mut page: Page = std::array::from_fn(|_| None);
                for (k, b) in join_slots(None, Some(other)) {
                    page[k] = Some(b);
                }
                slot.insert(Rc::new(page));
                changed = true;
            }
        }
        changed
    }
}

/// The slots of `into` that joining `from` changes, with their new
/// bytes (`None` stands for an absent page).
fn join_slots(into: Option<&Page>, from: Option<&Page>) -> Vec<(usize, SByte)> {
    let mut updates = Vec::new();
    for k in 0..PAGE as usize {
        let a = into.and_then(|p| p[k].as_ref());
        let b = from.and_then(|p| p[k].as_ref());
        match (a, b) {
            (Some(a), Some(b)) => {
                let world = a.array || b.array;
                let merged = a.val.join(&b.val);
                if a.array != world || !a.val.same_lattice(&merged) {
                    updates.push((k, SByte { val: merged, array: world }));
                }
            }
            (Some(a), None) => {
                if a.val.kind != Kind::Top {
                    updates.push((k, a.degraded()));
                }
            }
            (None, Some(b)) => updates.push((k, b.degraded())),
            (None, None) => {}
        }
    }
    updates
}

/// The abstract machine state at one program point.
#[derive(Clone, Debug)]
struct MState {
    regs: Vec<AVal>,
    /// Bytes relative to the *entry* `sp` of the linted handler; one
    /// coordinate system across inlined callees. Paged copy-on-write:
    /// cloning a state clones the page-index map, not the bytes.
    stack: Stack,
    /// Join of everything stored at an unresolved stack address; reads
    /// at any stack address must also observe it.
    blob: Option<AVal>,
}

/// Provenance-free lattice shape of a state, for memoization and
/// change detection.
type StateKey = (Vec<(bool, Kind)>, Vec<(i32, bool, bool, Kind)>, Option<(bool, Kind)>);

impl MState {
    fn reg(&self, r: Reg) -> &AVal {
        &self.regs[r.0 as usize]
    }

    fn set_reg(&mut self, r: Reg, v: AVal) {
        if r != Reg::ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    fn key(&self) -> StateKey {
        (
            self.regs.iter().map(|v| (v.secret.is_some(), v.kind.clone())).collect(),
            self.stack
                .iter()
                .map(|(o, b)| (o, b.array, b.val.secret.is_some(), b.val.kind.clone()))
                .collect(),
            self.blob.as_ref().map(|v| (v.secret.is_some(), v.kind.clone())),
        )
    }
}

/// Join `from` into `into`; true when `into`'s lattice shape changed.
fn join_state(into: &mut MState, from: &MState) -> bool {
    let mut changed = false;
    for i in 0..32 {
        let j = into.regs[i].join(&from.regs[i]);
        if !j.same_lattice(&into.regs[i]) {
            into.regs[i] = j;
            changed = true;
        }
    }
    changed |= into.stack.join(&from.stack);
    match (&mut into.blob, &from.blob) {
        (_, None) => {}
        (Some(a), Some(b)) => {
            let j = a.join(b);
            if !j.same_lattice(a) {
                *a = j;
                changed = true;
            }
        }
        (into_blob @ None, Some(b)) => {
            *into_blob = Some(b.clone());
            changed = true;
        }
    }
    changed
}

/// Where a memory access lands.
enum Target {
    Stack(i32),
    StackAny,
    Regions(RegionSet),
    Untracked,
}

/// A globally-visible side effect of analyzing a call, recorded for
/// cross-pass replay. Every application is guarded first-writer-wins,
/// so replaying an effect that already took hold is a no-op.
#[derive(Clone, Debug)]
enum Effect {
    /// `taint_region(rid, why)` was attempted.
    Taint(Rid, Rc<str>),
    /// The escape flag was attempted with this provenance.
    Escape(Rc<str>),
    /// A finding was attempted at `(rule, addr)`.
    Record(RuleId, u32, Rc<Finding>),
}

/// Dedup key for [`Effect`]s within one recording frame: only the
/// first attempt per key can take hold, so later ones need not be
/// recorded.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum EffKey {
    Taint(Rid),
    Escape,
    Record(RuleId, u32),
}

/// The in-progress recording of one `analyze_function` call: its
/// effects (in execution order) and its dependency footprint.
#[derive(Default)]
struct Frame {
    effects: Vec<Effect>,
    keys: HashSet<EffKey>,
    /// Regions observed absent from the content table.
    clean: BTreeSet<Rid>,
    /// Whether the escape flag was observed unset at a point where it
    /// determined a load's secrecy.
    saw_unescaped: bool,
}

/// A finished call summary: the joined return state plus the recording.
struct MemoEntry {
    ret: Option<MState>,
    effects: Vec<Effect>,
    clean: BTreeSet<Rid>,
    saw_unescaped: bool,
    /// Epoch at recording time — the dense oracle's validity key.
    epoch_at: u64,
}

struct AsmLint<'p> {
    prog: &'p Program,
    /// Pre-decoded text section (parallel to `prog.text`).
    code: Vec<Result<Instr, String>>,
    /// Function symbols (text labels not starting with `.`), sorted by
    /// address; used to name findings.
    funcs: Vec<(u32, String)>,
    /// Interned regions, indexed by [`Rid`]; ids follow [`MRegion`]
    /// sort order.
    regions: Vec<MRegion>,
    /// Pre-minted singleton region sets, indexed by [`Rid`].
    singletons: Vec<RegionSet>,
    /// Data-section symbol ranges, sorted by start address, for
    /// binary-search classification of constant addresses.
    globals: Vec<(u32, u32, Rid)>,
    /// Region → provenance of its secret content. Absent = clean.
    /// Monotone: entries are only ever added, never changed or removed,
    /// across the whole lint run (all passes).
    content: HashMap<Rid, Rc<str>>,
    /// Set when a secret was stored through an untracked pointer: all
    /// loads must then be considered secret. Set once, monotone.
    escaped: Option<Rc<str>>,
    /// Bumped when `content`/`escaped` grow; the outer loop reruns
    /// until stable.
    epoch: u64,
    /// Cross-pass call summaries; validity is footprint-checked (or
    /// epoch-checked for the dense oracle) at lookup.
    memo: HashMap<(u32, StateKey), Rc<MemoEntry>>,
    /// Sparse mode: reuse entries whose footprint still holds. Dense
    /// mode (the oracle): reuse only within the recording epoch.
    reuse: bool,
    /// Active recordings, innermost last. Effects and footprint
    /// observations go to *every* active frame (a caller depends on
    /// whatever its callees depend on).
    frames: Vec<Frame>,
    /// True when every active frame already has `saw_unescaped` — the
    /// common case after the first clean load, kept as a flag so the
    /// per-load hot path is one branch.
    all_unescaped: bool,
    call_stack: Vec<u32>,
    /// Per-active-call snapshot of the entry register file (parallel
    /// to `call_stack`), for the callee-saved-preservation check at
    /// each return point. Memoization stays sound: the snapshot's
    /// lattice shape is part of the memo key, and the findings the
    /// check records replay through the frame effect list.
    entry_regs: Vec<Vec<AVal>>,
    findings: BTreeMap<(RuleId, u32), Finding>,
    /// Worklist pops across every function fixpoint (flushed to the
    /// metrics registry by [`lint_asm`], not per-pop).
    fixpoint_iters: u64,
    /// Summary-memo hits in `analyze_function`.
    memo_hits: u64,
}

impl<'p> AsmLint<'p> {
    fn new(prog: &'p Program, code: Vec<Result<Instr, String>>, reuse: bool) -> AsmLint<'p> {
        let text_end = prog.text_base + 4 * prog.text.len() as u32;
        let mut funcs: Vec<(u32, String)> = prog
            .symbols
            .iter()
            .filter(|(name, &a)| !name.starts_with('.') && a >= prog.text_base && a < text_end)
            .map(|(name, &a)| (a, name.clone()))
            .collect();
        funcs.sort();
        let data_end = prog.data_base + prog.data.len() as u32;
        let mut starts: Vec<(u32, String)> = prog
            .symbols
            .iter()
            .filter(|(_, &a)| a >= prog.data_base && a < data_end)
            .map(|(name, &a)| (a, name.clone()))
            .collect();
        starts.sort();
        // Intern in MRegion sort order (State, Cmd, Resp, globals by
        // name) so interned sets iterate like `BTreeSet<MRegion>` did.
        let mut regions = vec![MRegion::State, MRegion::Cmd, MRegion::Resp];
        let mut names: Vec<&String> = starts.iter().map(|(_, n)| n).collect();
        names.sort();
        names.dedup();
        let by_name: HashMap<&str, Rid> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), (regions.len() + i) as Rid))
            .collect();
        regions.extend(names.iter().map(|n| MRegion::Global((*n).clone())));
        let singletons: Vec<RegionSet> =
            (0..regions.len() as Rid).map(|r| Rc::new(BTreeSet::from([r]))).collect();
        let mut globals = Vec::with_capacity(starts.len());
        for (i, (start, name)) in starts.iter().enumerate() {
            let end = starts.get(i + 1).map(|(s, _)| *s).unwrap_or(data_end);
            globals.push((*start, end, by_name[name.as_str()]));
        }
        let mut content = HashMap::new();
        content.insert(RID_STATE, Rc::from("secret handler state"));
        AsmLint {
            prog,
            code,
            funcs,
            regions,
            singletons,
            globals,
            content,
            escaped: None,
            epoch: 0,
            memo: HashMap::new(),
            reuse,
            frames: Vec::new(),
            all_unescaped: false,
            call_stack: Vec::new(),
            entry_regs: Vec::new(),
            findings: BTreeMap::new(),
            fixpoint_iters: 0,
            memo_hits: 0,
        }
    }

    /// The handler's abstract entry state (`a0` = state, `a1` = cmd,
    /// `a2` = resp, `sp` = 0).
    fn entry_state(&self) -> MState {
        let mut regs = vec![AVal::default(); 32];
        regs[Reg::ZERO.0 as usize] = AVal::konst(0);
        regs[Reg::SP.0 as usize] = AVal { secret: None, kind: Kind::Sp(0) };
        for (r, rid) in [(Reg::A0, RID_STATE), (Reg::A1, RID_CMD), (Reg::A2, RID_RESP)] {
            regs[r.0 as usize] =
                AVal { secret: None, kind: Kind::Mem(self.singletons[rid as usize].clone()) };
        }
        MState { regs, stack: Stack::default(), blob: None }
    }

    fn describe(&self, r: Rid) -> String {
        self.regions[r as usize].describe()
    }

    fn func_of(&self, addr: u32) -> String {
        match self.funcs.iter().rev().find(|(a, _)| *a <= addr) {
            Some((_, name)) => name.clone(),
            None => format!("{addr:#010x}"),
        }
    }

    fn data_region(&self, addr: u32) -> Option<Rid> {
        let i = self.globals.partition_point(|&(s, _, _)| s <= addr).checked_sub(1)?;
        let (s, e, rid) = self.globals[i];
        (addr >= s && addr < e).then_some(rid)
    }

    fn fetch(&self, addr: u32) -> Result<Instr, LintError> {
        if addr < self.prog.text_base || !addr.is_multiple_of(4) {
            return Err(LintError::Asm(format!("control flow leaves text at {addr:#010x}")));
        }
        let idx = ((addr - self.prog.text_base) / 4) as usize;
        match self.code.get(idx) {
            Some(Ok(i)) => Ok(*i),
            Some(Err(e)) => Err(LintError::Asm(format!("undecodable word at {addr:#010x}: {e}"))),
            None => Err(LintError::Asm(format!("control flow leaves text at {addr:#010x}"))),
        }
    }

    // --- effect emission (applied first-writer-wins, recorded into
    // --- every active frame for cross-pass replay)

    fn attempt_taint(&mut self, r: Rid, why: Rc<str>) {
        for f in &mut self.frames {
            if f.keys.insert(EffKey::Taint(r)) {
                f.effects.push(Effect::Taint(r, why.clone()));
            }
        }
        if let std::collections::hash_map::Entry::Vacant(e) = self.content.entry(r) {
            e.insert(why);
            self.epoch += 1;
        }
    }

    fn attempt_escape(&mut self, why: Rc<str>) {
        for f in &mut self.frames {
            if f.keys.insert(EffKey::Escape) {
                f.effects.push(Effect::Escape(why.clone()));
            }
        }
        if self.escaped.is_none() {
            self.escaped = Some(why);
            self.epoch += 1;
        }
    }

    fn attempt_record(&mut self, rule: RuleId, addr: u32, finding: Rc<Finding>) {
        for f in &mut self.frames {
            if f.keys.insert(EffKey::Record(rule, addr)) {
                f.effects.push(Effect::Record(rule, addr, finding.clone()));
            }
        }
        self.findings.entry((rule, addr)).or_insert_with(|| (*finding).clone());
    }

    fn record(&mut self, rule: RuleId, addr: u32, instr: Instr, why: &str, sink: &str) {
        let key = EffKey::Record(rule, addr);
        if self.findings.contains_key(&(rule, addr))
            && self.frames.iter().all(|f| f.keys.contains(&key))
        {
            return;
        }
        let func = self.func_of(addr);
        let finding = Finding {
            rule,
            layer: Layer::Asm,
            diagnostic: Diagnostic::new(
                rule.id(),
                Span::new(func.clone(), 0),
                format!("{sink} at {addr:#010x} (`{instr}`) in `{func}`"),
            ),
            taint: vec![why.to_string(), format!("{sink} at {addr:#010x}")],
        };
        self.attempt_record(rule, addr, Rc::new(finding));
    }

    // --- dependency footprint observations

    fn note_clean(&mut self, r: Rid) {
        for f in &mut self.frames {
            f.clean.insert(r);
        }
    }

    fn note_unescaped(&mut self) {
        if self.all_unescaped {
            return;
        }
        for f in &mut self.frames {
            f.saw_unescaped = true;
        }
        self.all_unescaped = true;
    }

    /// Re-apply a memoized call's recorded footprint and effects, in
    /// original execution order. Under a valid footprint this is
    /// observationally identical to re-running the call: every table
    /// read it performed still yields the same answer, so a fresh run
    /// would attempt exactly these effects — and each application is
    /// guarded first-writer-wins.
    fn replay(&mut self, e: &MemoEntry) {
        for &r in &e.clean {
            self.note_clean(r);
        }
        if e.saw_unescaped {
            self.note_unescaped();
        }
        for eff in &e.effects {
            match eff {
                Effect::Taint(r, why) => self.attempt_taint(*r, why.clone()),
                Effect::Escape(why) => self.attempt_escape(why.clone()),
                Effect::Record(rule, addr, finding) => {
                    self.attempt_record(*rule, *addr, finding.clone())
                }
            }
        }
    }

    /// Classify the address `base + off` for a memory access.
    fn target(&self, base: &AVal, off: i32) -> Target {
        match &base.kind {
            Kind::Sp(o) => Target::Stack(o + off),
            Kind::SpAny => Target::StackAny,
            Kind::Mem(rs) => Target::Regions(rs.clone()),
            Kind::Const(a) => {
                let addr = a.wrapping_add(off as u32);
                match self.data_region(addr) {
                    Some(r) => Target::Regions(self.singletons[r as usize].clone()),
                    None => Target::Untracked,
                }
            }
            Kind::Top => Target::Untracked,
        }
    }

    /// The abstract value loaded from `target`. Queries of the content
    /// table and the escape flag that come back *clean* are dependency
    /// observations: the answer could change in a later pass, so they
    /// go into every active frame's footprint.
    fn load_value(&mut self, st: &MState, target: &Target, w: u8, addr: u32) -> AVal {
        let mut v = match target {
            Target::Stack(o) => st.stack.read(*o, w),
            Target::StackAny => {
                let mut v = AVal { secret: st.stack.array_secret(), kind: Kind::Top };
                if let Some(blob) = &st.blob {
                    v = v.join(blob);
                }
                v.kind = Kind::Top;
                v
            }
            Target::Regions(rs) => {
                let mut secret = None;
                let mut cleans: Vec<Rid> = Vec::new();
                for &r in rs.iter() {
                    match self.content.get(&r) {
                        Some(why) => {
                            secret =
                                Some(Rc::from(format!("{why}, loaded from {}", self.describe(r))));
                            break;
                        }
                        None => cleans.push(r),
                    }
                }
                for r in cleans {
                    self.note_clean(r);
                }
                AVal { secret, kind: Kind::Top }
            }
            Target::Untracked => AVal {
                secret: Some(Rc::from(format!("load via untracked address at {addr:#010x}"))),
                kind: Kind::Top,
            },
        };
        if v.secret.is_none() {
            match &self.escaped {
                Some(e) => v.secret = Some(e.clone()),
                None => self.note_unescaped(),
            }
        }
        v
    }

    fn store_value(&mut self, st: &mut MState, target: Target, w: u8, val: &AVal, array: bool) {
        match target {
            Target::Stack(o) => st.stack.write(o, w, val, array),
            Target::StackAny => {
                let joined = match &st.blob {
                    Some(b) => b.join(val),
                    None => val.clone(),
                };
                st.blob = Some(joined);
            }
            Target::Regions(rs) => {
                if let Some(why) = &val.secret {
                    let why = why.clone();
                    for &r in rs.iter() {
                        if r != RID_STATE {
                            self.attempt_taint(r, why.clone());
                        }
                    }
                }
            }
            Target::Untracked => {
                if let Some(why) = &val.secret {
                    let why = Rc::from(format!("{why}, escaped via untracked store"));
                    self.attempt_escape(why);
                }
            }
        }
    }

    /// ALU result kind; keeps constants, stack offsets, and region
    /// pointers alive through address arithmetic.
    fn alu_kind(&self, op: AluOp, a: &Kind, b: &Kind) -> Kind {
        use Kind::*;
        if let (Const(x), Const(y)) = (a, b) {
            let v = op.eval(*x, *y);
            // A data-section address that survives constant arithmetic
            // is still a pointer into that symbol; classify it as a
            // region now so per-iteration element addresses join to
            // the region instead of collapsing (as unequal constants)
            // to Top at the loop head.
            if matches!(op, AluOp::Add | AluOp::Sub) {
                if let Some(r) = self.data_region(v) {
                    return Mem(self.singletons[r as usize].clone());
                }
            }
            return Const(v);
        }
        match (op, a, b) {
            (AluOp::Add, Sp(o), Const(c)) | (AluOp::Add, Const(c), Sp(o)) => {
                Sp(o.wrapping_add(*c as i32))
            }
            (AluOp::Sub, Sp(o), Const(c)) => Sp(o.wrapping_sub(*c as i32)),
            (AluOp::Add, Sp(_) | SpAny, _) | (AluOp::Add, _, Sp(_) | SpAny) => SpAny,
            (AluOp::Sub, Sp(_) | SpAny, _) => SpAny,
            (AluOp::Add | AluOp::Sub, Mem(rs), _) | (AluOp::Add, _, Mem(rs)) => Mem(rs.clone()),
            // A constant pointing into the data section, indexed by a
            // variable, is still a pointer into that symbol's range.
            (AluOp::Add, Const(c), _) | (AluOp::Add, _, Const(c)) => match self.data_region(*c) {
                Some(r) => Mem(self.singletons[r as usize].clone()),
                None => Top,
            },
            _ => Top,
        }
    }

    /// Analyze the function entered at `entry` with state `st`.
    /// Returns the join of its return-point states, or `None` when no
    /// path returns.
    fn analyze_function(&mut self, entry: u32, st: MState) -> Result<Option<MState>, LintError> {
        if self.call_stack.contains(&entry) {
            return Err(LintError::Unsupported(format!(
                "recursive call to `{}`",
                self.func_of(entry)
            )));
        }
        let memo_key = (entry, st.key());
        if let Some(e) = self.memo.get(&memo_key) {
            let valid = if self.reuse {
                e.clean.iter().all(|r| !self.content.contains_key(r))
                    && (!e.saw_unescaped || self.escaped.is_none())
            } else {
                e.epoch_at == self.epoch
            };
            if valid {
                self.memo_hits += 1;
                let e = Rc::clone(e);
                self.replay(&e);
                return Ok(e.ret.clone());
            }
        }
        self.call_stack.push(entry);
        self.entry_regs.push(st.regs.clone());
        self.frames.push(Frame::default());
        self.all_unescaped = false;
        let t0 = std::time::Instant::now();
        let epoch_at = self.epoch;
        let result = self.function_fixpoint(entry, st);
        parfait_telemetry::metrics::Metrics::global()
            .histogram_with("analyzer_fn_lint_us", &[("layer", "asm")])
            .record_duration(t0.elapsed());
        self.call_stack.pop();
        self.entry_regs.pop();
        let frame = self.frames.pop().expect("frame pushed above");
        // The popped frame may leave the remaining frames all-noted;
        // recompute the fast flag conservatively.
        self.all_unescaped = !self.frames.is_empty() && self.frames.iter().all(|f| f.saw_unescaped);
        let ret = result?;
        self.memo.insert(
            memo_key,
            Rc::new(MemoEntry {
                ret: ret.clone(),
                effects: frame.effects,
                clean: frame.clean,
                saw_unescaped: frame.saw_unescaped,
                epoch_at,
            }),
        );
        Ok(ret)
    }

    fn function_fixpoint(&mut self, entry: u32, st: MState) -> Result<Option<MState>, LintError> {
        let mut states: HashMap<u32, MState> = HashMap::new();
        states.insert(entry, st);
        // Address-ordered worklist: for the compiler's layout this
        // approximates reverse postorder, which converges in far fewer
        // visits than LIFO order. Per-instruction states double as an
        // early propagation cutoff — a re-entered path stops as soon as
        // its join stops changing.
        let mut work: BTreeSet<u32> = BTreeSet::from([entry]);
        let mut ret: Option<MState> = None;
        while let Some(addr) = work.pop_first() {
            self.fixpoint_iters += 1;
            let Some(st) = states.get(&addr).cloned() else { continue };
            let (succs, returned) = self.step(addr, st)?;
            if let Some(r) = returned {
                match &mut ret {
                    Some(acc) => {
                        join_state(acc, &r);
                    }
                    None => ret = Some(r),
                }
            }
            for (succ, out) in succs {
                match states.get_mut(&succ) {
                    Some(old) => {
                        if join_state(old, &out) {
                            work.insert(succ);
                        }
                    }
                    None => {
                        states.insert(succ, out);
                        work.insert(succ);
                    }
                }
            }
        }
        Ok(ret)
    }

    /// Execute one instruction abstractly. Returns the successor
    /// states within this function and, for return paths, the state
    /// handed back to the caller.
    #[allow(clippy::type_complexity)]
    fn step(
        &mut self,
        addr: u32,
        mut st: MState,
    ) -> Result<(Vec<(u32, MState)>, Option<MState>), LintError> {
        let instr = self.fetch(addr)?;
        let next = addr.wrapping_add(4);
        match instr {
            Instr::Lui { rd, imm } => {
                st.set_reg(rd, AVal::konst((imm as u32).wrapping_shl(12)));
            }
            Instr::Auipc { rd, imm } => {
                st.set_reg(rd, AVal::konst(addr.wrapping_add((imm as u32).wrapping_shl(12))));
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let a = st.reg(rs1).clone();
                let b = AVal::konst(imm as u32);
                self.check_latency(op, addr, instr, &a, &b);
                let kind = self.alu_kind(op, &a.kind, &b.kind);
                st.set_reg(rd, AVal { secret: a.secret, kind });
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let a = st.reg(rs1).clone();
                let b = st.reg(rs2).clone();
                self.check_latency(op, addr, instr, &a, &b);
                let kind = self.alu_kind(op, &a.kind, &b.kind);
                st.set_reg(rd, AVal { secret: a.secret.or(b.secret), kind });
            }
            Instr::Load { op, rd, rs1, off } => {
                let base = st.reg(rs1).clone();
                // `CT-MEM` applies because a core's contract exposes
                // the data-bus address; a core with an untraced bus
                // would not make this a sink.
                if latency_model().addr_trace(InstrClass::Load) {
                    if let Some(why) = &base.secret {
                        self.record(
                            RuleId::SecretIndex,
                            addr,
                            instr,
                            why,
                            "load at secret-dependent address",
                        );
                    }
                }
                let w = load_width(op);
                let target = self.target(&base, off);
                let v = self.load_value(&st, &target, w, addr);
                st.set_reg(rd, v);
            }
            Instr::Store { op, rs1, rs2, off } => {
                let base = st.reg(rs1).clone();
                let val = st.reg(rs2).clone();
                if latency_model().addr_trace(InstrClass::Store) {
                    if let Some(why) = &base.secret {
                        self.record(
                            RuleId::SecretIndex,
                            addr,
                            instr,
                            why,
                            "store at secret-dependent address",
                        );
                    }
                }
                let w = store_width(op);
                let target = self.target(&base, off);
                self.store_value(&mut st, target, w, &val, rs1 != Reg::SP);
            }
            Instr::Branch { rs1, rs2, off, .. } => {
                for rs in [rs1, rs2] {
                    if let Some(why) = &st.reg(rs).secret {
                        let why = why.clone();
                        self.record(
                            RuleId::SecretBranch,
                            addr,
                            instr,
                            &why,
                            "branch on secret-derived value",
                        );
                        break;
                    }
                }
                let taken = addr.wrapping_add(off as u32);
                return Ok((vec![(taken, st.clone()), (next, st)], None));
            }
            Instr::Jal { rd, off } => {
                let dest = addr.wrapping_add(off as u32);
                if rd == Reg::ZERO {
                    return Ok((vec![(dest, st)], None));
                }
                if rd == Reg::RA {
                    st.set_reg(Reg::RA, AVal::konst(next));
                    // Stack bytes below `sp` are dead (leftovers of
                    // returned callees); drop them so the callee's
                    // memo key only covers live memory.
                    if let Kind::Sp(s) = st.reg(Reg::SP).kind {
                        st.stack.prune_below(s);
                    }
                    return match self.analyze_function(dest, st)? {
                        Some(mut ret_state) => {
                            if let Kind::Sp(s) = ret_state.reg(Reg::SP).kind {
                                ret_state.stack.prune_below(s);
                            }
                            Ok((vec![(next, ret_state)], None))
                        }
                        None => Ok((vec![], None)),
                    };
                }
                return Err(LintError::Unsupported(format!(
                    "jal with link register {rd:?} at {addr:#010x}"
                )));
            }
            Instr::Jalr { rd, rs1, off } => {
                if rd == Reg::ZERO && rs1 == Reg::RA && off == 0 {
                    self.check_callee_saved(addr, instr, &st);
                    return Ok((vec![], Some(st)));
                }
                return Err(LintError::Unsupported(format!(
                    "indirect jump `{instr}` at {addr:#010x}"
                )));
            }
            Instr::Fence => {}
            // Halt conventions: no successor.
            Instr::Ecall | Instr::Ebreak => return Ok((vec![], None)),
        }
        Ok((vec![(next, st)], None))
    }

    /// `CT-ABI`: at a return point, every register the RISC-V calling
    /// convention makes the *callee* responsible for (`ra`, `sp`,
    /// `s0`–`s11`) must hold its entry value again. The byte-precise
    /// stack model reconstructs spill/restore round-trips exactly, so
    /// a conforming prologue/epilogue compares lattice-equal to the
    /// entry snapshot; a clobber that skips the restore (e.g. a fault
    /// that grabs an s-register as scratch) surfaces as a changed kind
    /// or secrecy. The comparison under-approximates — a register that
    /// re-joins to the entry shape without provably holding the entry
    /// value passes — which is the right polarity for a lint: no false
    /// positives on conforming code.
    fn check_callee_saved(&mut self, addr: u32, instr: Instr, st: &MState) {
        const CALLEE_SAVED: [Reg; 14] = [
            Reg::RA,
            Reg::SP,
            Reg::S0,
            Reg::S1,
            Reg::S2,
            Reg::S3,
            Reg::S4,
            Reg::S5,
            Reg::S6,
            Reg::S7,
            Reg::S8,
            Reg::S9,
            Reg::S10,
            Reg::S11,
        ];
        let Some(entry) = self.entry_regs.last() else {
            return;
        };
        let clobbered: Vec<Reg> = CALLEE_SAVED
            .into_iter()
            .filter(|r| !st.reg(*r).same_lattice(&entry[r.0 as usize]))
            .collect();
        for r in clobbered {
            let why = format!(
                "callee-saved `{}` not restored across `{}`",
                r.abi_name(),
                self.func_of(addr)
            );
            let sink = format!("callee-saved register `{}` clobbered at return", r.abi_name());
            self.record(RuleId::CalleeSaved, addr, instr, &why, &sink);
        }
    }

    /// `CT-LATENCY`: flag a secret operand feeding an op some
    /// supported core's [`parfait_cores::LeakageContract`] declares
    /// operand-dependent. Which operand matters is per class: a
    /// divider's latency tracks the dividend (and `rem` shares the
    /// datapath), a serial shifter's tracks only the *amount* — an
    /// immediate amount (`b` a constant from `OpImm`) can never fire.
    fn check_latency(&mut self, op: AluOp, addr: u32, instr: Instr, a: &AVal, b: &AVal) {
        let class = InstrClass::of_alu(op);
        if !latency_model().variable_latency(class) {
            return;
        }
        let (tainted, sink) = match class {
            InstrClass::Div => (
                a.secret.as_ref().or(b.secret.as_ref()),
                "secret operand to variable-latency division",
            ),
            InstrClass::Shift => (b.secret.as_ref(), "secret shift amount to a serial shifter"),
            _ => {
                (a.secret.as_ref().or(b.secret.as_ref()), "secret operand to a variable-latency op")
            }
        };
        if let Some(why) = tainted {
            let why = why.clone();
            self.record(RuleId::SecretLatency, addr, instr, &why, sink);
        }
    }
}

/// Well-known interned ids (matching [`MRegion`] sort order).
const RID_STATE: Rid = 0;
const RID_CMD: Rid = 1;
const RID_RESP: Rid = 2;

fn load_width(op: LoadOp) -> u8 {
    match op {
        LoadOp::Lb | LoadOp::Lbu => 1,
        LoadOp::Lh | LoadOp::Lhu => 2,
        LoadOp::Lw => 4,
    }
}

fn store_width(op: StoreOp) -> u8 {
    match op {
        StoreOp::Sb => 1,
        StoreOp::Sh => 2,
        StoreOp::Sw => 4,
    }
}

/// Pre-decode the text section; decode errors are kept per word and
/// surface only if control flow reaches them.
fn predecode(prog: &Program) -> Vec<Result<Instr, String>> {
    prog.text.iter().map(|&w| decode(w).map_err(|e| format!("{e:?}"))).collect()
}

/// The shared driver behind the public entry points: the outer
/// fixpoint over the region content table (stores into globals may
/// feed loads analyzed earlier; content only grows clean → secret, so
/// it terminates). In sparse mode, call summaries persist across
/// passes and only footprint-invalidated calls re-run; in dense mode
/// every pass recomputes the world (the differential oracle).
fn lint_asm_driver(prog: &Program, entry: &str, reuse: bool) -> Result<Vec<Finding>, LintError> {
    let entry_addr = prog.address_of(entry).ok_or_else(|| LintError::NoEntry(entry.to_string()))?;
    let code = predecode(prog);
    let mut lint = AsmLint::new(prog, code, reuse);
    loop {
        let epoch0 = lint.epoch;
        lint.findings.clear();
        lint.analyze_function(entry_addr, lint.entry_state())?;
        if lint.epoch == epoch0 {
            break;
        }
    }
    let metrics = parfait_telemetry::metrics::Metrics::global();
    metrics
        .counter_with("analyzer_fixpoint_iterations_total", &[("layer", "asm")])
        .add(lint.fixpoint_iters);
    metrics.counter_with("analyzer_memo_hits_total", &[("layer", "asm")]).add(lint.memo_hits);
    let mut findings: Vec<Finding> = lint.findings.into_values().collect();
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Run the assembly-layer constant-time analysis on an assembled
/// firmware image, starting from the `entry` symbol with the Parfait
/// handler ABI (`a0` = secret state, `a1` = public command, `a2` =
/// response buffer).
///
/// Returns the sorted findings; [`LintError`] when control flow cannot
/// be recovered (indirect jumps, recursion, undecodable words).
pub fn lint_asm(prog: &Program, entry: &str) -> Result<Vec<Finding>, LintError> {
    lint_asm_driver(prog, entry, true)
}

/// The dense oracle: every pass of the outer fixpoint recomputes every
/// function (call summaries are reused only within the epoch that
/// recorded them, which is the pre-sparse behavior). Kept for the
/// differential suite that proves the sparse driver byte-identical;
/// production callers want [`lint_asm`].
pub fn lint_asm_dense(prog: &Program, entry: &str) -> Result<Vec<Finding>, LintError> {
    lint_asm_driver(prog, entry, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_littlec::codegen::OptLevel;

    fn lint_src(src: &str, opt: OptLevel) -> Vec<Finding> {
        let program = parfait_littlec::frontend(src).unwrap();
        let asm = parfait_littlec::compile(&program, opt).unwrap();
        let prog = parfait_riscv::assemble(&asm).unwrap();
        let sparse = lint_asm(&prog, "handle").unwrap();
        // Every test doubles as a sparse-vs-dense differential check.
        let dense = lint_asm_dense(&prog, "handle").unwrap();
        assert_eq!(sparse, dense, "sparse and dense asm lint disagree");
        sparse
    }

    fn rules(findings: &[Finding]) -> Vec<RuleId> {
        let mut r: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        r.sort();
        r.dedup();
        r
    }

    #[test]
    fn masked_select_is_clean_at_both_opt_levels() {
        let src = "void handle(u8* state, u8* cmd, u8* resp) {
            u32 s = state[0];
            u32 m = 0 - (cmd[0] & 1);
            resp[0] = (u8)(s & m);
        }";
        for opt in [OptLevel::O0, OptLevel::O2] {
            let f = lint_src(src, opt);
            assert!(f.is_empty(), "{opt:?}: {f:#?}");
        }
    }

    #[test]
    fn secret_branch_fires_with_function_name() {
        let f = lint_src(
            "void handle(u8* state, u8* cmd, u8* resp) {
                if (state[0]) { resp[0] = 1; }
            }",
            OptLevel::O2,
        );
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
        assert_eq!(f[0].diagnostic.span.function, "handle");
        assert_eq!(f[0].layer, Layer::Asm);
    }

    #[test]
    fn secret_index_into_global_table_fires() {
        let f = lint_src(
            "const u8 T[4] = {7, 7, 7, 7};
            void handle(u8* state, u8* cmd, u8* resp) {
                resp[0] = T[state[0] & 3];
            }",
            OptLevel::O2,
        );
        assert_eq!(rules(&f), vec![RuleId::SecretIndex]);
    }

    #[test]
    fn public_index_into_global_table_is_clean() {
        let f = lint_src(
            "const u8 T[4] = {7, 7, 7, 7};
            void handle(u8* state, u8* cmd, u8* resp) {
                u32 i = 0;
                u32 acc = state[0];
                while (i < 4) { acc = acc + T[i]; i = i + 1; }
                resp[0] = (u8)acc;
            }",
            OptLevel::O2,
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn division_by_secret_fires_through_spills() {
        // Enough live values to force register pressure at -O0.
        let f = lint_src(
            "void handle(u8* state, u8* cmd, u8* resp) {
                u32 s = state[0];
                resp[0] = (u8)(100 / (s + 1));
            }",
            OptLevel::O0,
        );
        assert_eq!(rules(&f), vec![RuleId::SecretLatency]);
    }

    #[test]
    fn taint_survives_call_and_stack_roundtrip() {
        let f = lint_src(
            "u32 pick(u8* p) { return p[0]; }
            void handle(u8* state, u8* cmd, u8* resp) {
                u32 buf[2];
                buf[0] = pick(state);
                buf[1] = pick(cmd);
                if (buf[0]) { resp[0] = 1; }
            }",
            OptLevel::O2,
        );
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
    }

    #[test]
    fn global_taint_feeds_an_earlier_load_across_passes() {
        // `spill` writes a secret into a global that `use_it` read as
        // clean on the first pass — the cross-pass invalidation must
        // re-analyze `use_it` (its footprint includes the global) and
        // the branch must fire.
        let f = lint_src(
            "static u8 G[4];
            u32 use_it(u8* cmd) { return G[0] + cmd[0]; }
            void spill(u8* state) { G[0] = state[0]; }
            void handle(u8* state, u8* cmd, u8* resp) {
                u32 a = use_it(cmd);
                spill(state);
                u32 b = use_it(cmd);
                if (b) { resp[0] = (u8)a; }
            }",
            OptLevel::O2,
        );
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
    }

    /// Compile, apply an asm-level patch (the adversary's codegen-fault
    /// shape), assemble, lint.
    fn lint_patched(
        src: &str,
        opt: OptLevel,
        patch: impl FnOnce(String) -> String,
    ) -> Vec<Finding> {
        let program = parfait_littlec::frontend(src).unwrap();
        let asm = patch(parfait_littlec::compile(&program, opt).unwrap());
        let prog = parfait_riscv::assemble(&asm).unwrap();
        let sparse = lint_asm(&prog, "handle").unwrap();
        let dense = lint_asm_dense(&prog, "handle").unwrap();
        assert_eq!(sparse, dense, "sparse and dense asm lint disagree");
        sparse
    }

    const ABI_SRC: &str = "void handle(u8* state, u8* cmd, u8* resp) {
        resp[0] = (u8)(state[0] & cmd[0] & 0);
    }";

    #[test]
    fn callee_saved_clobber_fires_at_the_return_point() {
        // The pure codegen fault DESIGN.md §12 called unkillable: grab
        // an s-register as scratch without saving it. Output-identical,
        // timing-identical — only the ABI contract is broken.
        for opt in [OptLevel::O0, OptLevel::O2] {
            let f = lint_patched(ABI_SRC, opt, |asm| {
                asm.replacen("handle:\n", "handle:\n    li s3, 42\n", 1)
            });
            assert_eq!(rules(&f), vec![RuleId::CalleeSaved], "{opt:?}");
            assert!(
                f[0].diagnostic.message.contains("`s3`"),
                "finding should name the register: {f:#?}"
            );
            assert_eq!(f[0].rule.id(), "CT-ABI");
        }
    }

    #[test]
    fn saved_and_restored_s_register_is_clean() {
        // The conforming version of the same clobber: spill, scratch,
        // reload. The byte-precise stack model reconstructs the entry
        // value, so the return-point comparison passes.
        let f = lint_patched(ABI_SRC, OptLevel::O2, |asm| {
            asm.replacen(
                "handle:\n",
                "handle:\n    addi sp, sp, -4\n    sw s3, 0(sp)\n    li s3, 42\n    \
                 lw s3, 0(sp)\n    addi sp, sp, 4\n",
                1,
            )
        });
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn clobbered_ra_fires() {
        let f = lint_patched(ABI_SRC, OptLevel::O2, |asm| {
            asm.replacen("handle:\n", "handle:\n    li ra, 0\n", 1)
        });
        assert_eq!(rules(&f), vec![RuleId::CalleeSaved]);
        assert!(f[0].diagnostic.message.contains("`ra`"), "{f:#?}");
    }

    #[test]
    fn missing_entry_is_an_error() {
        let program = parfait_littlec::frontend("u32 f() { return 1; }").unwrap();
        let asm = parfait_littlec::compile(&program, OptLevel::O0).unwrap();
        let prog = parfait_riscv::assemble(&asm).unwrap();
        assert!(matches!(lint_asm(&prog, "handle"), Err(LintError::NoEntry(_))));
    }

    /// The byte-keyed map the paged [`Stack`] replaced, kept as its
    /// oracle: one entry per tracked byte, same read, prune and join
    /// semantics.
    #[derive(Clone, Default)]
    struct MapStack(BTreeMap<i32, SByte>);

    impl MapStack {
        fn read(&self, o: i32, w: u8) -> AVal {
            let bytes: Vec<Option<&SByte>> = (0..w as i32).map(|k| self.0.get(&(o + k))).collect();
            let agree = bytes.iter().all(|b| match b {
                Some(b) => b.val.same_lattice(&bytes[0].as_ref().unwrap().val),
                None => false,
            });
            if agree {
                bytes[0].unwrap().val.clone()
            } else {
                let secret = bytes.iter().flatten().find_map(|b| b.val.secret.clone());
                AVal { secret, kind: Kind::Top }
            }
        }

        fn write(&mut self, o: i32, w: u8, val: &AVal, array: bool) {
            for k in 0..w as i32 {
                self.0.insert(o + k, SByte { val: val.clone(), array });
            }
        }

        fn array_secret(&self) -> Option<Rc<str>> {
            let mut secret = None;
            for b in self.0.values().filter(|b| b.array) {
                secret = secret.or_else(|| b.val.secret.clone());
            }
            secret
        }

        fn prune_below(&mut self, s: i32) {
            self.0.retain(|&o, _| o >= s);
        }

        fn join(&mut self, from: &MapStack) -> bool {
            let keys: BTreeSet<i32> = self.0.keys().chain(from.0.keys()).copied().collect();
            let mut updates: Vec<(i32, SByte)> = Vec::new();
            for o in keys {
                match (self.0.get(&o), from.0.get(&o)) {
                    (Some(a), Some(b)) => {
                        let world = a.array || b.array;
                        let merged = a.val.join(&b.val);
                        if a.array == world && a.val.same_lattice(&merged) {
                            continue;
                        }
                        updates.push((o, SByte { val: merged, array: world }));
                    }
                    (Some(a), None) => {
                        if a.val.kind != Kind::Top {
                            let val = AVal { secret: a.val.secret.clone(), kind: Kind::Top };
                            updates.push((o, SByte { val, array: a.array }));
                        }
                    }
                    (None, Some(b)) => {
                        let val = AVal { secret: b.val.secret.clone(), kind: Kind::Top };
                        updates.push((o, SByte { val, array: b.array }));
                    }
                    (None, None) => unreachable!(),
                }
            }
            let changed = !updates.is_empty();
            self.0.extend(updates);
            changed
        }
    }

    /// Everything observable about a value, provenance text included.
    fn shape(v: &AVal) -> (Option<String>, Kind) {
        (v.secret.as_deref().map(String::from), v.kind.clone())
    }

    type Bytes = Vec<(i32, bool, (Option<String>, Kind))>;

    fn paged_bytes(s: &Stack) -> Bytes {
        s.iter().map(|(o, b)| (o, b.array, shape(&b.val))).collect()
    }

    fn model_bytes(m: &MapStack) -> Bytes {
        m.0.iter().map(|(&o, b)| (o, b.array, shape(&b.val))).collect()
    }

    /// splitmix64: a seeded, dependency-free generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// An offset within four bytes of a page boundary, in pages -3..=1.
        fn offset(&mut self) -> i32 {
            PAGE * (self.below(5) as i32 - 3) + self.below(9) as i32 - 4
        }
    }

    #[test]
    fn paged_stack_matches_the_byte_map_model() {
        let provs: Vec<Rc<str>> = ["p0", "p1", "p2"].into_iter().map(Rc::from).collect();
        let sets: Vec<RegionSet> = (0..3).map(|r| Rc::new(BTreeSet::from([r]))).collect();
        let mut steps_with_bytes = 0;
        for seed in 0..48 {
            let mut rng = Rng(seed);
            let mut paged: Vec<Stack> = vec![Stack::default(); 3];
            let mut model: Vec<MapStack> = vec![MapStack::default(); 3];
            for step in 0..300 {
                let (i, j) = (rng.below(3) as usize, rng.below(3) as usize);
                let ctx = format!("seed {seed} step {step}");
                match rng.below(8) {
                    0..=2 => {
                        let val = AVal {
                            secret: match rng.below(4) {
                                3 => None,
                                p => Some(provs[p as usize].clone()),
                            },
                            kind: match rng.below(5) {
                                0 => Kind::Top,
                                1 => Kind::Const(rng.below(3) as u32),
                                2 => Kind::Sp(rng.below(3) as i32 - 1),
                                3 => Kind::SpAny,
                                _ => Kind::Mem(sets[rng.below(3) as usize].clone()),
                            },
                        };
                        let (o, w, array) =
                            (rng.offset(), [1, 2, 4][rng.below(3) as usize], rng.below(2) == 0);
                        paged[i].write(o, w, &val, array);
                        model[i].write(o, w, &val, array);
                    }
                    3 => {
                        let (o, w) = (rng.offset(), [1, 2, 4][rng.below(3) as usize]);
                        assert_eq!(
                            shape(&paged[i].read(o, w)),
                            shape(&model[i].read(o, w)),
                            "{ctx}"
                        );
                        assert_eq!(paged[i].array_secret(), model[i].array_secret(), "{ctx}");
                    }
                    4 => {
                        let s = rng.offset();
                        paged[i].prune_below(s);
                        model[i].prune_below(s);
                    }
                    5 | 6 => {
                        let (from_p, from_m) = (paged[j].clone(), model[j].clone());
                        let changed = paged[i].join(&from_p);
                        assert_eq!(changed, model[i].join(&from_m), "{ctx}: changed flag");
                    }
                    _ => {
                        paged[i] = paged[j].clone();
                        model[i] = model[j].clone();
                    }
                }
                for (p, m) in paged.iter().zip(&model) {
                    assert_eq!(paged_bytes(p), model_bytes(m), "{ctx}");
                    assert!(p.pages.values().all(|pg| pg.iter().any(Option::is_some)), "{ctx}");
                    steps_with_bytes += usize::from(!m.0.is_empty());
                }
            }
        }
        assert!(steps_with_bytes > 10_000, "the walk must exercise populated stacks");
    }
}
