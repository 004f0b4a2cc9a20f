//! Abstract taint interpretation over assembled RV32IM firmware.
//!
//! The IR-layer analysis cannot see leaks *introduced by* the
//! compiler: `opt` rewrites branches, `regalloc` spills secrets to the
//! stack and reloads them, codegen materializes addresses. This module
//! re-checks the constant-time rules on the final instruction words,
//! recovering control flow with [`parfait_riscv::decode`] and running
//! a dataflow fixpoint over basic blocks.
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
//! # Block-level states
//!
//! Each function fixpoint keeps an abstract state only at basic-block
//! heads: the function's entry, every branch target and fall-through,
//! and every `jal x0` target ([`predecode`] finds them once per lint).
//! A popped head's state is stepped through its straight-line code in
//! place, a call's joined return state included, and the state that
//! leaves the block is joined into its successor heads. Every other
//! instruction has exactly one predecessor, the one before it, so its
//! state is the one stepping in place hands it, and the fixpoint joins
//! only where control flow merges. The per-instruction fixpoint this
//! replaced is kept as a test oracle, and the tests hold the two to
//! the same findings, region-content table and escape flag.
//!
//! # Passes and their read set
//!
//! The whole-program analysis is itself a fixpoint over two global
//! tables — the region content map (which memory regions hold secret
//! data) and the escape flag — because a store into a global may feed
//! a load analyzed earlier. Both tables only grow, and every write to
//! them is first-writer-wins, so the lint runs whole passes until one
//! is its own fixpoint.
//!
//! Each pass records what its loads read from the tables: the regions
//! they found clean, and whether one found the escape flag unset. When
//! all of that still holds at the end of the pass — no region read as
//! clean has been tainted since, and the escape flag is still unset if
//! a load found it unset — a re-run would read the same answers and
//! attempt only writes that have already taken hold, so it would
//! retrace the pass exactly: the pass is the fixpoint, and
//! [`lint_asm`] stops there. The dense oracle ([`lint_asm_dense`])
//! instead re-runs passes until the tables stop growing; the tests
//! hold the two to the same findings, tables and errors.

use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// An interned region set: an index into [`SetTable::sets`]. The
/// singleton `{r}` has id `r`.
type SetId = u32;

/// Every region set the analysis has built, each once, so kinds compare
/// and hash by id exactly as they would by contents.
struct SetTable {
    sets: Vec<BTreeSet<Rid>>,
    ids: HashMap<BTreeSet<Rid>, SetId>,
}

impl SetTable {
    /// A table holding the singletons of regions `0..regions`, at their
    /// own ids.
    fn new(regions: usize) -> SetTable {
        let mut table = SetTable { sets: Vec::new(), ids: HashMap::new() };
        for r in 0..regions as Rid {
            table.intern(BTreeSet::from([r]));
        }
        table
    }

    fn intern(&mut self, set: BTreeSet<Rid>) -> SetId {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.sets.len() as SetId;
        self.sets.push(set.clone());
        self.ids.insert(set, id);
        id
    }

    fn get(&self, id: SetId) -> &BTreeSet<Rid> {
        &self.sets[id as usize]
    }

    fn union(&mut self, a: SetId, b: SetId) -> SetId {
        let set = self.get(a).union(self.get(b)).copied().collect();
        self.intern(set)
    }
}

/// Interned provenance text: an index into [`AsmLint::provs`].
type Prov = u32;

/// What a register value *is*, beyond its secrecy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    Mem(SetId),
}

/// The abstract value of a register or stack slot. Plain data: copying
/// a state's registers or stack bytes touches no reference count.
#[derive(Clone, Copy, Debug)]
struct AVal {
    /// `Some(provenance)` when the value may be secret-derived.
    secret: Option<Prov>,
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

    fn join(&self, other: &AVal, sets: &mut SetTable) -> AVal {
        AVal { secret: self.secret.or(other.secret), kind: join_kind(self.kind, other.kind, sets) }
    }

    fn same_lattice(&self, other: &AVal) -> bool {
        self.secret.is_some() == other.secret.is_some() && self.kind == other.kind
    }

    /// Whether `self.join(other)` differs from `self` in lattice shape,
    /// decided without building the joined value.
    fn grown_by(&self, other: &AVal, sets: &SetTable) -> bool {
        other.secret.is_some() && self.secret.is_none()
            || kind_grown_by(self.kind, other.kind, sets)
    }
}

/// Whether `join_kind(a, b) != a`.
fn kind_grown_by(a: Kind, b: Kind, sets: &SetTable) -> bool {
    match (a, b) {
        _ if a == b => false,
        (Kind::Sp(_) | Kind::SpAny, Kind::Sp(_) | Kind::SpAny) => a != Kind::SpAny,
        (Kind::Mem(x), Kind::Mem(y)) => !sets.get(y).is_subset(sets.get(x)),
        _ => a != Kind::Top,
    }
}

fn join_kind(a: Kind, b: Kind, sets: &mut SetTable) -> Kind {
    match (a, b) {
        _ if a == b => a,
        (Kind::Sp(_) | Kind::SpAny, Kind::Sp(_) | Kind::SpAny) => Kind::SpAny,
        (Kind::Mem(x), Kind::Mem(y)) => Kind::Mem(sets.union(x, y)),
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
#[derive(Clone, Copy, Debug)]
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
        SByte { val: AVal { secret: self.val.secret, kind: Kind::Top }, array: self.array }
    }
}

/// Bytes per [`Stack`] page: the unit of copy-on-write sharing.
const PAGE: i32 = 64;

/// One page of tracked stack bytes; slot `k` of page `p` is offset
/// `p * PAGE + k`, and `None` is a byte never written.
type Page = [Option<SByte>; PAGE as usize];

/// The tracked stack bytes of one state: fixed-size copy-on-write
/// pages in a copy-on-write list sorted by page index. Cloning a state
/// shares the list; a store copies the list and the one page it
/// writes, if shared. States forked from one another share every page
/// neither has written since, so a join skips each page both sides
/// still share, and the whole stack when they share the list. No page
/// is ever empty, so equal contents always have equal page sets.
#[derive(Clone, Debug, Default)]
struct Stack {
    pages: Rc<Vec<(i32, Rc<Page>)>>,
}

impl Stack {
    /// Page index and slot of offset `o` (floored, so negative offsets
    /// land in negative pages).
    fn split(o: i32) -> (i32, usize) {
        (o.div_euclid(PAGE), o.rem_euclid(PAGE) as usize)
    }

    /// Where page `p` is in the list, or where it would go.
    fn find(&self, p: i32) -> Result<usize, usize> {
        self.pages.binary_search_by_key(&p, |&(q, _)| q)
    }

    fn get(&self, o: i32) -> Option<&SByte> {
        let (p, k) = Stack::split(o);
        let i = self.find(p).ok()?;
        self.pages[i].1[k].as_ref()
    }

    /// Store `val` into the `w` bytes at `o`: a multi-byte store
    /// replicates its value across the covered bytes.
    fn write(&mut self, o: i32, w: u8, val: &AVal, array: bool) {
        for o in o..o + w as i32 {
            let (p, k) = Stack::split(o);
            let i = self.find(p);
            let pages = Rc::make_mut(&mut self.pages);
            let i = i.unwrap_or_else(|i| {
                pages.insert(i, (p, Rc::new([None; PAGE as usize])));
                i
            });
            Rc::make_mut(&mut pages[i].1)[k] = Some(SByte { val: *val, array });
        }
    }

    /// Tracked bytes in ascending offset order.
    fn iter(&self) -> impl Iterator<Item = (i32, &SByte)> {
        self.pages.iter().flat_map(|(p, page)| {
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
                return b0.val;
            }
        }
        let secret = (0..w as i32).filter_map(|k| self.get(o + k)).find_map(|b| b.val.secret);
        AVal { secret, kind: Kind::Top }
    }

    /// Provenance of the lowest secret array-world byte: what a read at
    /// an unknown stack offset observes.
    fn array_secret(&self) -> Option<Prov> {
        self.iter().filter(|(_, b)| b.array).find_map(|(_, b)| b.val.secret)
    }

    /// Drop every byte below offset `s` (the current stack pointer),
    /// removing the pages this empties: the bytes belong to frames that
    /// have returned. Real code never reads below `sp`, so the stale
    /// bytes would only be carried into, and joined at, every later
    /// state.
    fn prune_below(&mut self, s: i32) {
        if self.iter().next().is_none_or(|(lo, _)| lo >= s) {
            return;
        }
        let (p, k) = Stack::split(s);
        let keep = self.find(p).unwrap_or_else(|i| i);
        let pages = Rc::make_mut(&mut self.pages);
        pages.drain(..keep);
        if let Some((_, page)) = pages.first_mut().filter(|(q, _)| *q == p) {
            let slots = Rc::make_mut(page);
            slots[..k].fill(None);
            if slots.iter().all(Option::is_none) {
                pages.remove(0);
            }
        }
    }

    /// Join `from` into `self`; true when some byte's lattice shape
    /// changed. A byte missing on one side was never written there:
    /// clean, unknown contents — the join keeps the other side's
    /// secrecy and world but degrades its kind to `Top`.
    fn join(&mut self, from: &Stack, sets: &mut SetTable) -> bool {
        if Rc::ptr_eq(&self.pages, &from.pages) {
            return false;
        }
        let mut changed = false;
        // Both lists are sorted: walk `from` alongside.
        let mut j = 0;
        for i in 0..self.pages.len() {
            let (p, page) = &self.pages[i];
            while from.pages.get(j).is_some_and(|(q, _)| q < p) {
                j += 1;
            }
            let other = from.pages.get(j).filter(|(q, _)| q == p).map(|(_, o)| o);
            if other.is_some_and(|o| Rc::ptr_eq(o, page)) {
                continue;
            }
            let other = other.map(|o| &**o);
            if page_grown_by(page, other, sets) {
                let page = &mut Rc::make_mut(&mut self.pages)[i].1;
                join_slots(Rc::make_mut(page), other, sets);
                changed = true;
            }
        }
        let added: Vec<(i32, Rc<Page>)> = from
            .pages
            .iter()
            .filter(|(q, _)| self.find(*q).is_err())
            .map(|(q, other)| {
                let mut page = [None; PAGE as usize];
                join_slots(&mut page, Some(other), sets);
                (*q, Rc::new(page))
            })
            .collect();
        if !added.is_empty() {
            let pages = Rc::make_mut(&mut self.pages);
            pages.extend(added);
            pages.sort_unstable_by_key(|&(p, _)| p);
            changed = true;
        }
        changed
    }
}

/// Whether joining byte `b` into byte `a` changes `a`'s lattice shape
/// (`None` is a byte never written).
fn slot_grown_by(a: Option<&SByte>, b: Option<&SByte>, sets: &SetTable) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => b.array && !a.array || a.val.grown_by(&b.val, sets),
        (Some(a), None) => a.val.kind != Kind::Top,
        (None, Some(_)) => true,
        (None, None) => false,
    }
}

/// Byte `a` joined with byte `b`, for a pair [`slot_grown_by`] accepts.
fn join_slot(a: Option<&SByte>, b: Option<&SByte>, sets: &mut SetTable) -> SByte {
    match (a, b) {
        (Some(a), Some(b)) => SByte { val: a.val.join(&b.val, sets), array: a.array || b.array },
        (Some(a), None) => a.degraded(),
        (None, Some(b)) => b.degraded(),
        (None, None) => unreachable!("an unwritten pair never grows"),
    }
}

/// Join page `from` into `slots` (`None` stands for an absent page),
/// rebuilding only the slots whose lattice shape changes.
fn join_slots(slots: &mut Page, from: Option<&Page>, sets: &mut SetTable) {
    for (k, a) in slots.iter_mut().enumerate() {
        let b = from.and_then(|p| p[k].as_ref());
        if slot_grown_by(a.as_ref(), b, sets) {
            *a = Some(join_slot(a.as_ref(), b, sets));
        }
    }
}

/// Whether joining page `from` into page `into` would change it.
fn page_grown_by(into: &Page, from: Option<&Page>, sets: &SetTable) -> bool {
    (0..PAGE as usize)
        .any(|k| slot_grown_by(into[k].as_ref(), from.and_then(|p| p[k].as_ref()), sets))
}

/// The abstract machine state at one program point.
#[derive(Clone, Debug)]
struct MState {
    regs: Vec<AVal>,
    /// Bytes relative to the *entry* `sp` of the linted handler; one
    /// coordinate system across inlined callees. Paged copy-on-write:
    /// cloning a state shares the page list, not the bytes.
    stack: Stack,
    /// Join of everything stored at an unresolved stack address; reads
    /// at any stack address must also observe it.
    blob: Option<AVal>,
}

impl MState {
    fn reg(&self, r: Reg) -> &AVal {
        &self.regs[r.0 as usize]
    }

    fn set_reg(&mut self, r: Reg, v: AVal) {
        if r != Reg::ZERO {
            self.regs[r.0 as usize] = v;
        }
    }
}

/// Join `from` into `into`; true when `into`'s lattice shape changed.
fn join_state(into: &mut MState, from: &MState, sets: &mut SetTable) -> bool {
    let mut changed = false;
    for (a, b) in into.regs.iter_mut().zip(&from.regs) {
        if a.grown_by(b, sets) {
            *a = a.join(b, sets);
            changed = true;
        }
    }
    changed |= into.stack.join(&from.stack, sets);
    match (&mut into.blob, &from.blob) {
        (_, None) => {}
        (Some(a), Some(b)) => {
            if a.grown_by(b, sets) {
                *a = a.join(b, sets);
                changed = true;
            }
        }
        (into_blob @ None, Some(b)) => {
            *into_blob = Some(*b);
            changed = true;
        }
    }
    changed
}

/// Where a memory access lands.
enum Target {
    Stack(i32),
    StackAny,
    Regions(SetId),
    Untracked,
}

/// Where control goes after one abstract instruction step, with the
/// state it carries.
enum Flow {
    /// To the next instruction; after a call, with the callee's joined
    /// return state.
    Next(MState),
    /// A conditional branch: to its target and to the next instruction.
    Branch(u32, MState),
    /// `jal x0`: to its target only.
    Jump(u32, MState),
    /// Back to the caller.
    Return(MState),
    /// Nowhere: a halt, or a call from which no path returns.
    Halt,
}

/// One function fixpoint's tables: the states it keeps by address, the
/// address-ordered worklist (for the compiler's layout this
/// approximates reverse postorder, which converges in far fewer visits
/// than LIFO order), and the join of the states it returns.
struct Worklist {
    states: HashMap<u32, MState>,
    work: BTreeSet<u32>,
    ret: Option<MState>,
}

impl Worklist {
    fn new(entry: u32, st: MState) -> Worklist {
        Worklist { states: HashMap::from([(entry, st)]), work: BTreeSet::from([entry]), ret: None }
    }
}

/// The pre-decoded text section, parallel to `prog.text`.
struct Text {
    /// Each word's decode; errors are kept per word and surface only
    /// if control flow reaches them.
    code: Vec<Result<Instr, String>>,
    /// Whether the word starts a basic block: a branch's target or
    /// fall-through, or a `jal x0` target.
    heads: Vec<bool>,
}

struct AsmLint<'p> {
    prog: &'p Program,
    /// The decoded text and its block heads.
    text: Text,
    /// Function symbols (text labels not starting with `.`), sorted by
    /// address; used to name findings.
    funcs: Vec<(u32, String)>,
    /// Interned regions, indexed by [`Rid`]; ids follow [`MRegion`]
    /// sort order.
    regions: Vec<MRegion>,
    /// Every region set built so far; pointer kinds name sets by id.
    sets: SetTable,
    /// Every provenance text built so far, indexed by [`Prov`], each
    /// once ([`AsmLint::intern`]).
    provs: Vec<Rc<str>>,
    prov_ids: HashMap<Rc<str>, Prov>,
    /// Data-section symbol ranges, sorted by start address, for
    /// binary-search classification of constant addresses.
    globals: Vec<(u32, u32, Rid)>,
    /// Region → provenance of its secret content. Absent = clean.
    /// Monotone: entries are only ever added, never changed or removed,
    /// across the whole lint run (all passes).
    content: HashMap<Rid, Prov>,
    /// Set when a secret was stored through an untracked pointer: all
    /// loads must then be considered secret. Set once, monotone.
    escaped: Option<Prov>,
    /// The current pass's read set, first half: the regions (by
    /// [`Rid`]) that a load found clean in `content`.
    read_clean: Vec<bool>,
    /// The read set's second half: whether a load found `escaped` unset.
    read_unescaped: bool,
    call_stack: Vec<u32>,
    /// Per-active-call entry state (parallel to `call_stack`): its
    /// register file serves the callee-saved-preservation check at
    /// each return point.
    entry_states: Vec<MState>,
    findings: BTreeMap<(RuleId, u32), Finding>,
    /// Abstract instruction steps across every function fixpoint
    /// (flushed to the metrics registry by [`lint_asm`], not per step).
    fixpoint_iters: u64,
    /// Joins into a state the fixpoints already keep.
    state_joins: u64,
    /// Passes run so far.
    #[cfg(test)]
    passes: u32,
    /// Run the per-instruction oracle instead of the block fixpoint.
    #[cfg(test)]
    per_instruction: bool,
}

impl<'p> AsmLint<'p> {
    fn new(prog: &'p Program, text: Text) -> AsmLint<'p> {
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
        let sets = SetTable::new(regions.len());
        let read_clean = vec![false; regions.len()];
        let mut globals = Vec::with_capacity(starts.len());
        for (i, (start, name)) in starts.iter().enumerate() {
            let end = starts.get(i + 1).map(|(s, _)| *s).unwrap_or(data_end);
            globals.push((*start, end, by_name[name.as_str()]));
        }
        let state_secret: Rc<str> = Rc::from("secret handler state");
        AsmLint {
            prog,
            text,
            funcs,
            regions,
            sets,
            provs: vec![state_secret.clone()],
            prov_ids: HashMap::from([(state_secret, 0)]),
            globals,
            content: HashMap::from([(RID_STATE, 0)]),
            escaped: None,
            read_clean,
            read_unescaped: false,
            call_stack: Vec::new(),
            entry_states: Vec::new(),
            findings: BTreeMap::new(),
            fixpoint_iters: 0,
            state_joins: 0,
            #[cfg(test)]
            passes: 0,
            #[cfg(test)]
            per_instruction: false,
        }
    }

    /// Analyze the handler at `entry` pass after pass, and stop after
    /// the first pass whose read set still holds: no region it read as
    /// clean has been tainted, and the escape flag is still unset if it
    /// read the flag unset. A re-run would read the same answers, and
    /// every table write is first-writer-wins, so it would retrace the
    /// pass exactly.
    fn run(&mut self, entry: u32) -> Result<(), LintError> {
        loop {
            self.pass(entry)?;
            let tainted = |(r, &read)| read && self.content.contains_key(&r);
            let stale = (0..).zip(&self.read_clean).any(tainted)
                || self.read_unescaped && self.escaped.is_some();
            if !stale {
                return Ok(());
            }
        }
    }

    /// The dense oracle's outer loop: pass after pass until one adds
    /// nothing to the content table or the escape flag.
    fn run_dense(&mut self, entry: u32) -> Result<(), LintError> {
        let tables = |lint: &Self| (lint.content.len(), lint.escaped.is_some());
        loop {
            let before = tables(self);
            self.pass(entry)?;
            if tables(self) == before {
                return Ok(());
            }
        }
    }

    /// One pass over the handler at `entry`, with fresh findings and an
    /// empty read set.
    fn pass(&mut self, entry: u32) -> Result<(), LintError> {
        #[cfg(test)]
        {
            self.passes += 1;
        }
        self.findings.clear();
        self.read_clean.fill(false);
        self.read_unescaped = false;
        self.analyze_function(entry, self.entry_state())?;
        Ok(())
    }

    /// The handler's abstract entry state (`a0` = state, `a1` = cmd,
    /// `a2` = resp, `sp` = 0).
    fn entry_state(&self) -> MState {
        let mut regs = vec![AVal::default(); 32];
        regs[Reg::ZERO.0 as usize] = AVal::konst(0);
        regs[Reg::SP.0 as usize] = AVal { secret: None, kind: Kind::Sp(0) };
        for (r, rid) in [(Reg::A0, RID_STATE), (Reg::A1, RID_CMD), (Reg::A2, RID_RESP)] {
            regs[r.0 as usize] = AVal { secret: None, kind: Kind::Mem(rid) };
        }
        MState { regs, stack: Stack::default(), blob: None }
    }

    fn describe(&self, r: Rid) -> String {
        self.regions[r as usize].describe()
    }

    /// The id of provenance text `text`, minted on first sight.
    fn intern(&mut self, text: String) -> Prov {
        if let Some(&p) = self.prov_ids.get(text.as_str()) {
            return p;
        }
        let text: Rc<str> = Rc::from(text);
        let p = self.provs.len() as Prov;
        self.provs.push(text.clone());
        self.prov_ids.insert(text, p);
        p
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
        match word_index(self.prog, addr).and_then(|i| self.text.code.get(i)) {
            Some(Ok(i)) => Ok(*i),
            Some(Err(e)) => Err(LintError::Asm(format!("undecodable word at {addr:#010x}: {e}"))),
            None => Err(LintError::Asm(format!("control flow leaves text at {addr:#010x}"))),
        }
    }

    /// Whether the word at `addr` starts a basic block.
    fn is_head(&self, addr: u32) -> bool {
        word_index(self.prog, addr).and_then(|i| self.text.heads.get(i)).is_some_and(|&h| h)
    }

    /// Record a finding at `(rule, addr)` unless one is there already:
    /// like every write to the tables, first-writer-wins.
    fn record(&mut self, rule: RuleId, addr: u32, instr: Instr, why: &str, sink: &str) {
        if self.findings.contains_key(&(rule, addr)) {
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
        self.findings.insert((rule, addr), finding);
    }

    /// [`AsmLint::record`] for a secret reaching a sink: the taint path
    /// starts at the secret's provenance.
    fn record_secret(&mut self, rule: RuleId, addr: u32, instr: Instr, why: Prov, sink: &str) {
        let why = self.provs[why as usize].clone();
        self.record(rule, addr, instr, &why, sink);
    }

    /// Classify the address `base + off` for a memory access.
    fn target(&self, base: &AVal, off: i32) -> Target {
        match &base.kind {
            Kind::Sp(o) => Target::Stack(o + off),
            Kind::SpAny => Target::StackAny,
            Kind::Mem(rs) => Target::Regions(*rs),
            Kind::Const(a) => {
                let addr = a.wrapping_add(off as u32);
                match self.data_region(addr) {
                    Some(r) => Target::Regions(r),
                    None => Target::Untracked,
                }
            }
            Kind::Top => Target::Untracked,
        }
    }

    /// The abstract value loaded from `target`. Answers of the content
    /// table and the escape flag that come back *clean* go into the
    /// pass's read set: a later write in the pass could change them.
    fn load_value(&mut self, st: &MState, target: &Target, w: u8, addr: u32) -> AVal {
        let mut v = match target {
            Target::Stack(o) => st.stack.read(*o, w),
            Target::StackAny => {
                let secret = st.stack.array_secret();
                AVal { secret: secret.or(st.blob.and_then(|b| b.secret)), kind: Kind::Top }
            }
            Target::Regions(rs) => {
                let mut tainted = None;
                for &r in self.sets.get(*rs) {
                    match self.content.get(&r) {
                        Some(&why) => {
                            tainted = Some((why, r));
                            break;
                        }
                        None => self.read_clean[r as usize] = true,
                    }
                }
                let secret = tainted.map(|(why, r)| {
                    self.intern(format!(
                        "{}, loaded from {}",
                        self.provs[why as usize],
                        self.describe(r)
                    ))
                });
                AVal { secret, kind: Kind::Top }
            }
            Target::Untracked => AVal {
                secret: Some(self.intern(format!("load via untracked address at {addr:#010x}"))),
                kind: Kind::Top,
            },
        };
        if v.secret.is_none() {
            match self.escaped {
                Some(e) => v.secret = Some(e),
                None => self.read_unescaped = true,
            }
        }
        v
    }

    fn store_value(&mut self, st: &mut MState, target: Target, w: u8, val: &AVal, array: bool) {
        match target {
            Target::Stack(o) => st.stack.write(o, w, val, array),
            Target::StackAny => {
                let joined = match &st.blob {
                    Some(b) => b.join(val, &mut self.sets),
                    None => *val,
                };
                st.blob = Some(joined);
            }
            Target::Regions(rs) => {
                if let Some(why) = val.secret {
                    for &r in self.sets.get(rs) {
                        if r != RID_STATE {
                            self.content.entry(r).or_insert(why);
                        }
                    }
                }
            }
            Target::Untracked => {
                if let Some(why) = val.secret {
                    let text = format!("{}, escaped via untracked store", self.provs[why as usize]);
                    let why = self.intern(text);
                    self.escaped.get_or_insert(why);
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
                    return Mem(r);
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
            (AluOp::Add | AluOp::Sub, Mem(rs), _) | (AluOp::Add, _, Mem(rs)) => Mem(*rs),
            // A constant pointing into the data section, indexed by a
            // variable, is still a pointer into that symbol's range.
            (AluOp::Add, Const(c), _) | (AluOp::Add, _, Const(c)) => match self.data_region(*c) {
                Some(r) => Mem(r),
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
        self.call_stack.push(entry);
        self.entry_states.push(st.clone());
        let t0 = std::time::Instant::now();
        let result = self.function_fixpoint(entry, st);
        parfait_telemetry::metrics::Metrics::global()
            .histogram_with("analyzer_fn_lint_us", &[("layer", "asm")])
            .record_duration(t0.elapsed());
        self.call_stack.pop();
        self.entry_states.pop();
        result
    }

    /// The function's fixpoint over basic blocks: pop the lowest head,
    /// step its state through the block in place up to the next head,
    /// join what leaves the block into its successor heads. Returns the
    /// join of its return states.
    fn function_fixpoint(&mut self, entry: u32, st: MState) -> Result<Option<MState>, LintError> {
        #[cfg(test)]
        if self.per_instruction {
            return self.instruction_fixpoint(entry, st);
        }
        let mut wl = Worklist::new(entry, st);
        while let Some(head) = wl.work.pop_first() {
            let (mut addr, mut st) = (head, wl.states[&head].clone());
            loop {
                self.fixpoint_iters += 1;
                let next = addr.wrapping_add(4);
                let out = match self.step(addr, st)? {
                    Flow::Next(out) => out,
                    Flow::Branch(taken, out) => {
                        self.join_at(&mut wl, taken, out.clone());
                        out
                    }
                    Flow::Jump(dest, out) => {
                        self.join_at(&mut wl, dest, out);
                        break;
                    }
                    Flow::Return(out) => {
                        self.join_return(&mut wl, out);
                        break;
                    }
                    Flow::Halt => break,
                };
                if next == entry || self.is_head(next) {
                    self.join_at(&mut wl, next, out);
                    break;
                }
                (addr, st) = (next, out);
            }
        }
        Ok(wl.ret)
    }

    /// The fixpoint the block one replaced, kept as its oracle: a state
    /// at every instruction, each step's out-state joined into its
    /// successors' (a re-entered path stops where its join stops
    /// changing).
    #[cfg(test)]
    fn instruction_fixpoint(
        &mut self,
        entry: u32,
        st: MState,
    ) -> Result<Option<MState>, LintError> {
        let mut wl = Worklist::new(entry, st);
        while let Some(addr) = wl.work.pop_first() {
            self.fixpoint_iters += 1;
            let next = addr.wrapping_add(4);
            match self.step(addr, wl.states[&addr].clone())? {
                Flow::Next(out) => self.join_at(&mut wl, next, out),
                Flow::Branch(taken, out) => {
                    self.join_at(&mut wl, taken, out.clone());
                    self.join_at(&mut wl, next, out);
                }
                Flow::Jump(dest, out) => self.join_at(&mut wl, dest, out),
                Flow::Return(out) => self.join_return(&mut wl, out),
                Flow::Halt => {}
            }
        }
        Ok(wl.ret)
    }

    /// Join `out` into the function's return state.
    fn join_return(&mut self, wl: &mut Worklist, out: MState) {
        match &mut wl.ret {
            Some(acc) => {
                self.state_joins += 1;
                join_state(acc, &out, &mut self.sets);
            }
            None => wl.ret = Some(out),
        }
    }

    /// Join `out` into the state kept at `succ`, queueing `succ` when
    /// that state is new or grows.
    fn join_at(&mut self, wl: &mut Worklist, succ: u32, out: MState) {
        match wl.states.get_mut(&succ) {
            Some(old) => {
                self.state_joins += 1;
                if join_state(old, &out, &mut self.sets) {
                    wl.work.insert(succ);
                }
            }
            None => {
                wl.states.insert(succ, out);
                wl.work.insert(succ);
            }
        }
    }

    /// Execute one instruction abstractly: where control goes next,
    /// with the state it carries.
    fn step(&mut self, addr: u32, mut st: MState) -> Result<Flow, LintError> {
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
                let a = *st.reg(rs1);
                let b = AVal::konst(imm as u32);
                self.check_latency(op, addr, instr, &a, &b);
                let kind = self.alu_kind(op, &a.kind, &b.kind);
                st.set_reg(rd, AVal { secret: a.secret, kind });
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let a = *st.reg(rs1);
                let b = *st.reg(rs2);
                self.check_latency(op, addr, instr, &a, &b);
                let kind = self.alu_kind(op, &a.kind, &b.kind);
                st.set_reg(rd, AVal { secret: a.secret.or(b.secret), kind });
            }
            Instr::Load { op, rd, rs1, off } => {
                let base = *st.reg(rs1);
                // `CT-MEM` applies because a core's contract exposes
                // the data-bus address; a core with an untraced bus
                // would not make this a sink.
                if latency_model().addr_trace(InstrClass::Load) {
                    if let Some(why) = base.secret {
                        self.record_secret(
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
                let (base, val) = (*st.reg(rs1), *st.reg(rs2));
                if latency_model().addr_trace(InstrClass::Store) {
                    if let Some(why) = base.secret {
                        self.record_secret(
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
                if let Some(why) = st.reg(rs1).secret.or(st.reg(rs2).secret) {
                    self.record_secret(
                        RuleId::SecretBranch,
                        addr,
                        instr,
                        why,
                        "branch on secret-derived value",
                    );
                }
                return Ok(Flow::Branch(addr.wrapping_add(off as u32), st));
            }
            Instr::Jal { rd, off } => {
                let dest = addr.wrapping_add(off as u32);
                if rd == Reg::ZERO {
                    return Ok(Flow::Jump(dest, st));
                }
                if rd == Reg::RA {
                    st.set_reg(Reg::RA, AVal::konst(next));
                    // Stack bytes below `sp` are dead (leftovers of
                    // returned callees); drop them so the callee's
                    // states carry only live memory.
                    if let Kind::Sp(s) = st.reg(Reg::SP).kind {
                        st.stack.prune_below(s);
                    }
                    return match self.analyze_function(dest, st)? {
                        Some(mut ret_state) => {
                            if let Kind::Sp(s) = ret_state.reg(Reg::SP).kind {
                                ret_state.stack.prune_below(s);
                            }
                            Ok(Flow::Next(ret_state))
                        }
                        None => Ok(Flow::Halt),
                    };
                }
                return Err(LintError::Unsupported(format!(
                    "jal with link register {rd:?} at {addr:#010x}"
                )));
            }
            Instr::Jalr { rd, rs1, off } => {
                if rd == Reg::ZERO && rs1 == Reg::RA && off == 0 {
                    self.check_callee_saved(addr, instr, &st);
                    return Ok(Flow::Return(st));
                }
                return Err(LintError::Unsupported(format!(
                    "indirect jump `{instr}` at {addr:#010x}"
                )));
            }
            Instr::Fence => {}
            // Halt conventions: no successor.
            Instr::Ecall | Instr::Ebreak => return Ok(Flow::Halt),
        }
        Ok(Flow::Next(st))
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
        let Some(entry) = self.entry_states.last() else {
            return;
        };
        let clobbered: Vec<Reg> =
            CALLEE_SAVED.into_iter().filter(|r| !st.reg(*r).same_lattice(entry.reg(*r))).collect();
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
            InstrClass::Div => {
                (a.secret.or(b.secret), "secret operand to variable-latency division")
            }
            InstrClass::Shift => (b.secret, "secret shift amount to a serial shifter"),
            _ => (a.secret.or(b.secret), "secret operand to a variable-latency op"),
        };
        if let Some(why) = tainted {
            self.record_secret(RuleId::SecretLatency, addr, instr, why, sink);
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

/// The index of the text word at `addr`, if `addr` is word-aligned and
/// not below the text (it may be past its end).
fn word_index(prog: &Program, addr: u32) -> Option<usize> {
    (addr >= prog.text_base && addr.is_multiple_of(4))
        .then(|| ((addr - prog.text_base) / 4) as usize)
}

/// Pre-decode the text section and mark its basic-block heads.
fn predecode(prog: &Program) -> Text {
    let code: Vec<Result<Instr, String>> =
        prog.text.iter().map(|&w| decode(w).map_err(|e| format!("{e:?}"))).collect();
    let mut heads = vec![false; code.len()];
    for (i, instr) in code.iter().enumerate() {
        let addr = prog.text_base + 4 * i as u32;
        let targets = match instr {
            Ok(Instr::Branch { off, .. }) => {
                [Some(addr.wrapping_add(*off as u32)), Some(addr.wrapping_add(4))]
            }
            Ok(Instr::Jal { rd: Reg::ZERO, off }) => [Some(addr.wrapping_add(*off as u32)), None],
            _ => continue,
        };
        for t in targets.into_iter().flatten() {
            if let Some(head) = word_index(prog, t).and_then(|j| heads.get_mut(j)) {
                *head = true;
            }
        }
    }
    Text { code, heads }
}

/// The body of both public entry points; `run` is the outer fixpoint
/// over the global tables (stores into globals may feed loads analyzed
/// earlier; content only grows clean → secret, so it terminates).
fn lint_asm_with<'p>(
    prog: &'p Program,
    entry: &str,
    run: fn(&mut AsmLint<'p>, u32) -> Result<(), LintError>,
) -> Result<Vec<Finding>, LintError> {
    let entry_addr = prog.address_of(entry).ok_or_else(|| LintError::NoEntry(entry.to_string()))?;
    let mut lint = AsmLint::new(prog, predecode(prog));
    run(&mut lint, entry_addr)?;
    let metrics = parfait_telemetry::metrics::Metrics::global();
    metrics
        .counter_with("analyzer_fixpoint_iterations_total", &[("layer", "asm")])
        .add(lint.fixpoint_iters);
    metrics.counter_with("analyzer_state_joins_total", &[("layer", "asm")]).add(lint.state_joins);
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
    lint_asm_with(prog, entry, AsmLint::run)
}

/// The dense oracle: re-runs whole passes until the region content
/// table and the escape flag stop growing, whatever the passes read.
/// Kept for the tests, which hold [`lint_asm`]'s stop at the first pass
/// whose read set holds to it; production callers want [`lint_asm`].
pub fn lint_asm_dense(prog: &Program, entry: &str) -> Result<Vec<Finding>, LintError> {
    lint_asm_with(prog, entry, AsmLint::run_dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use parfait_littlec::codegen::OptLevel;

    fn lint_src(src: &str, opt: OptLevel) -> Vec<Finding> {
        lint_prog(&assemble_src(src, opt))
    }

    fn assemble_src(src: &str, opt: OptLevel) -> Program {
        let program = parfait_littlec::frontend(src).unwrap();
        parfait_riscv::assemble(&parfait_littlec::compile(&program, opt).unwrap()).unwrap()
    }

    /// Every test doubles as a check against both oracles
    /// ([`check_oracles`]).
    fn lint_prog(prog: &Program) -> Vec<Finding> {
        let ((findings, _, _), _) = check_oracles("handle", prog).unwrap();
        findings
    }

    fn rules(findings: &[Finding]) -> Vec<RuleId> {
        let mut r: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        r.sort();
        r.dedup();
        r
    }

    const MASKED_SELECT: &str = "void handle(u8* state, u8* cmd, u8* resp) {
        u32 s = state[0];
        u32 m = 0 - (cmd[0] & 1);
        resp[0] = (u8)(s & m);
    }";

    #[test]
    fn masked_select_is_clean_at_both_opt_levels() {
        for opt in [OptLevel::O0, OptLevel::O2] {
            let f = lint_src(MASKED_SELECT, opt);
            assert!(f.is_empty(), "{opt:?}: {f:#?}");
        }
    }

    const SECRET_BRANCH: &str = "void handle(u8* state, u8* cmd, u8* resp) {
        if (state[0]) { resp[0] = 1; }
    }";

    #[test]
    fn secret_branch_fires_with_function_name() {
        let f = lint_src(SECRET_BRANCH, OptLevel::O2);
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
        assert_eq!(f[0].diagnostic.span.function, "handle");
        assert_eq!(f[0].layer, Layer::Asm);
    }

    const SECRET_TABLE_INDEX: &str = "const u8 T[4] = {7, 7, 7, 7};
    void handle(u8* state, u8* cmd, u8* resp) {
        resp[0] = T[state[0] & 3];
    }";

    #[test]
    fn secret_index_into_global_table_fires() {
        let f = lint_src(SECRET_TABLE_INDEX, OptLevel::O2);
        assert_eq!(rules(&f), vec![RuleId::SecretIndex]);
    }

    const PUBLIC_TABLE_INDEX: &str = "const u8 T[4] = {7, 7, 7, 7};
    void handle(u8* state, u8* cmd, u8* resp) {
        u32 i = 0;
        u32 acc = state[0];
        while (i < 4) { acc = acc + T[i]; i = i + 1; }
        resp[0] = (u8)acc;
    }";

    #[test]
    fn public_index_into_global_table_is_clean() {
        let f = lint_src(PUBLIC_TABLE_INDEX, OptLevel::O2);
        assert!(f.is_empty(), "{f:#?}");
    }

    // Enough live values to force register pressure at -O0.
    const SECRET_DIVISOR: &str = "void handle(u8* state, u8* cmd, u8* resp) {
        u32 s = state[0];
        resp[0] = (u8)(100 / (s + 1));
    }";

    #[test]
    fn division_by_secret_fires_through_spills() {
        let f = lint_src(SECRET_DIVISOR, OptLevel::O0);
        assert_eq!(rules(&f), vec![RuleId::SecretLatency]);
    }

    const CALL_AND_STACK_ROUNDTRIP: &str = "u32 pick(u8* p) { return p[0]; }
    void handle(u8* state, u8* cmd, u8* resp) {
        u32 buf[2];
        buf[0] = pick(state);
        buf[1] = pick(cmd);
        if (buf[0]) { resp[0] = 1; }
    }";

    #[test]
    fn taint_survives_call_and_stack_roundtrip() {
        let f = lint_src(CALL_AND_STACK_ROUNDTRIP, OptLevel::O2);
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
    }

    // `spill` writes a secret into a global that `use_it` read as clean
    // on the first pass; the branch is on the second call's result, which
    // the first pass already sees as secret.
    const GLOBAL_TAINT_ACROSS_PASSES: &str = "static u8 G[4];
    u32 use_it(u8* cmd) { return G[0] + cmd[0]; }
    void spill(u8* state) { G[0] = state[0]; }
    void handle(u8* state, u8* cmd, u8* resp) {
        u32 a = use_it(cmd);
        spill(state);
        u32 b = use_it(cmd);
        if (b) { resp[0] = (u8)a; }
    }";

    #[test]
    fn global_taint_feeds_an_earlier_load_across_passes() {
        let f = lint_src(GLOBAL_TAINT_ACROSS_PASSES, OptLevel::O2);
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
    }

    // Here the branch is on the value loaded *before* `spill` taints the
    // global: the first pass reads `G` clean and sees a public branch,
    // so the finding appears only in a second pass, which runs because
    // that read no longer holds.
    const TAINTED_AFTER_ITS_READ: &str = "static u8 G[4];
    u32 use_it(u8* cmd) { return G[0] + cmd[0]; }
    void spill(u8* state) { G[0] = state[0]; }
    void handle(u8* state, u8* cmd, u8* resp) {
        u32 a = use_it(cmd);
        spill(state);
        if (a) { resp[0] = 1; }
    }";

    /// The same for the escape flag, hand-written: the first load (of
    /// `cmd`) finds the flag unset, and only the later store of the
    /// secret `t1` through the untracked pointer `t3` sets it. From the
    /// second pass on, every load is secret, the branch on `t0` too.
    const ESCAPED_AFTER_ITS_READ: &str = ".text\nhandle:\n    lbu t0, 0(a1)\n    \
        lbu t1, 0(a0)\n    sb t1, 0(t3)\n    beqz t0, .Ldone\n.Ldone:\n    ret\n";

    #[test]
    fn a_second_pass_runs_exactly_when_a_read_no_longer_holds() {
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let prog = assemble_src(TAINTED_AFTER_ITS_READ, opt);
            let ((f, content, _), passes) = check_oracles(&format!("{opt:?}"), &prog).unwrap();
            assert_eq!(rules(&f), vec![RuleId::SecretBranch], "{opt:?}");
            let g = &content["global `glb_G`"];
            assert_eq!(f[0].taint[0], format!("{g}, loaded from global `glb_G`"), "{opt:?}");
            assert_eq!(passes, 2, "{opt:?}");
        }
        let prog = parfait_riscv::assemble(ESCAPED_AFTER_ITS_READ).unwrap();
        let ((f, _, escaped), passes) = check_oracles("escape", &prog).unwrap();
        assert_eq!(rules(&f), vec![RuleId::SecretBranch]);
        let escaped = escaped.expect("the store escapes");
        assert_eq!(f[0].taint[0], escaped);
        assert!(escaped.ends_with("escaped via untracked store"), "{escaped}");
        assert_eq!(passes, 2);
        // Without the stores that invalidate a read, one pass is the
        // fixpoint.
        let ((f, _, _), passes) =
            check_oracles("no spill", &assemble_src(SECRET_BRANCH, OptLevel::O2)).unwrap();
        assert_eq!((rules(&f), passes), (vec![RuleId::SecretBranch], 1));
    }

    const ABI_SRC: &str = "void handle(u8* state, u8* cmd, u8* resp) {
        resp[0] = (u8)(state[0] & cmd[0] & 0);
    }";

    /// Every source the tests above lint.
    const SEEDED: [&str; 9] = [
        MASKED_SELECT,
        SECRET_BRANCH,
        SECRET_TABLE_INDEX,
        PUBLIC_TABLE_INDEX,
        SECRET_DIVISOR,
        CALL_AND_STACK_ROUNDTRIP,
        GLOBAL_TAINT_ACROSS_PASSES,
        TAINTED_AFTER_ITS_READ,
        ABI_SRC,
    ];

    // The adversary's codegen-fault shapes, as asm patches: each is
    // inserted at the entry of `ABI_SRC`'s compiled handler.
    const S3_CLOBBER: &str = "    li s3, 42\n";
    const S3_SAVED: &str = "    addi sp, sp, -4\n    sw s3, 0(sp)\n    li s3, 42\n    \
                            lw s3, 0(sp)\n    addi sp, sp, 4\n";
    const RA_CLOBBER: &str = "    li ra, 0\n";

    /// `ABI_SRC` compiled at `opt`, with `patch` inserted at the
    /// handler's entry, assembled.
    fn patched(opt: OptLevel, patch: &str) -> Program {
        let program = parfait_littlec::frontend(ABI_SRC).unwrap();
        let asm = parfait_littlec::compile(&program, opt).unwrap();
        parfait_riscv::assemble(&asm.replacen("handle:\n", &format!("handle:\n{patch}"), 1))
            .unwrap()
    }

    fn lint_patched(opt: OptLevel, patch: &str) -> Vec<Finding> {
        lint_prog(&patched(opt, patch))
    }

    #[test]
    fn callee_saved_clobber_fires_at_the_return_point() {
        // The pure codegen fault DESIGN.md §12 called unkillable: grab
        // an s-register as scratch without saving it. Output-identical,
        // timing-identical — only the ABI contract is broken.
        for opt in [OptLevel::O0, OptLevel::O2] {
            let f = lint_patched(opt, S3_CLOBBER);
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
        let f = lint_patched(OptLevel::O2, S3_SAVED);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn clobbered_ra_fires() {
        let f = lint_patched(OptLevel::O2, RA_CLOBBER);
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
                bytes[0].unwrap().val
            } else {
                let secret = bytes.iter().flatten().find_map(|b| b.val.secret);
                AVal { secret, kind: Kind::Top }
            }
        }

        fn write(&mut self, o: i32, w: u8, val: &AVal, array: bool) {
            for k in 0..w as i32 {
                self.0.insert(o + k, SByte { val: *val, array });
            }
        }

        fn array_secret(&self) -> Option<Prov> {
            let mut secret = None;
            for b in self.0.values().filter(|b| b.array) {
                secret = secret.or(b.val.secret);
            }
            secret
        }

        fn prune_below(&mut self, s: i32) {
            self.0.retain(|&o, _| o >= s);
        }

        fn join(&mut self, from: &MapStack, sets: &mut SetTable) -> bool {
            let keys: BTreeSet<i32> = self.0.keys().chain(from.0.keys()).copied().collect();
            let mut updates: Vec<(i32, SByte)> = Vec::new();
            for o in keys {
                match (self.0.get(&o), from.0.get(&o)) {
                    (Some(a), Some(b)) => {
                        let world = a.array || b.array;
                        let merged = a.val.join(&b.val, sets);
                        if a.array == world && a.val.same_lattice(&merged) {
                            continue;
                        }
                        updates.push((o, SByte { val: merged, array: world }));
                    }
                    (Some(a), None) => {
                        if a.val.kind != Kind::Top {
                            let val = AVal { secret: a.val.secret, kind: Kind::Top };
                            updates.push((o, SByte { val, array: a.array }));
                        }
                    }
                    (None, Some(b)) => {
                        let val = AVal { secret: b.val.secret, kind: Kind::Top };
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

    /// Everything observable about a value, provenance included.
    fn shape(v: &AVal) -> (Option<Prov>, Kind) {
        (v.secret, v.kind)
    }

    type Bytes = Vec<(i32, bool, (Option<Prov>, Kind))>;

    fn paged_bytes(s: &Stack) -> Bytes {
        s.iter().map(|(o, b)| (o, b.array, shape(&b.val))).collect()
    }

    fn model_bytes(m: &MapStack) -> Bytes {
        m.0.iter().map(|(&o, b)| (o, b.array, shape(&b.val))).collect()
    }

    impl Rng {
        /// An offset within four bytes of a page boundary, in pages -3..=1.
        fn offset(&mut self) -> i32 {
            PAGE * (self.below(5) as i32 - 3) + self.below(9) as i32 - 4
        }
    }

    #[test]
    fn paged_stack_matches_the_byte_map_model() {
        // Three regions; joins mint their unions in the shared table.
        let mut sets = SetTable::new(3);
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
                                p => Some(p as Prov),
                            },
                            kind: match rng.below(5) {
                                0 => Kind::Top,
                                1 => Kind::Const(rng.below(3) as u32),
                                2 => Kind::Sp(rng.below(3) as i32 - 1),
                                3 => Kind::SpAny,
                                _ => Kind::Mem(rng.below(3) as SetId),
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
                        let changed = paged[i].join(&from_p, &mut sets);
                        assert_eq!(
                            changed,
                            model[i].join(&from_m, &mut sets),
                            "{ctx}: changed flag"
                        );
                    }
                    _ => {
                        paged[i] = paged[j].clone();
                        model[i] = model[j].clone();
                    }
                }
                for (p, m) in paged.iter().zip(&model) {
                    assert_eq!(paged_bytes(p), model_bytes(m), "{ctx}");
                    assert!(p.pages.iter().all(|(_, pg)| pg.iter().any(Option::is_some)), "{ctx}");
                    steps_with_bytes += usize::from(!m.0.is_empty());
                }
            }
        }
        assert!(steps_with_bytes > 10_000, "the walk must exercise populated stacks");
    }

    /// Sources beyond the ones the tests above lint, each at every opt
    /// level: helpers called in loops on public and secret data, a
    /// secret loop bound, secret-indexed stores through a helper.
    const CORPUS: &[&str] = &[
        "const u8 T[16] = {9, 4, 10, 11, 13, 1, 8, 5, 6, 2, 0, 3, 12, 14, 15, 7};
        u32 look(u32 i) { return T[i & 15]; }
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 i = 0;
            u32 acc = 0;
            while (i < 8) { acc = acc + look(cmd[i]) + look(state[i]); i = i + 1; }
            resp[0] = (u8)acc;
        }",
        "u32 add(u32 a, u32 b) { return a + b; }
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 n = state[0] & 31;
            u32 acc = 0;
            u32 i = 0;
            while (i < n) { acc = add(acc, cmd[i]); i = i + 1; }
            resp[0] = (u8)(100 / (acc + 1));
        }",
        "static u8 scratch[16];
        void put(u32 i, u32 v) { scratch[i & 15] = (u8)v; }
        void handle(u8* state, u8* cmd, u8* resp) {
            put(state[0], cmd[0]);
            put(cmd[1], state[1]);
            resp[0] = scratch[0];
        }",
    ];

    /// What a lint decides: its findings, the final region-content table
    /// (region → provenance text) and the escape flag's provenance.
    type Outcome = (Vec<Finding>, BTreeMap<String, String>, Option<String>);

    /// A lint of `prog`'s handler through the outer loop `run` (the
    /// production one or the dense oracle's), and through the block
    /// fixpoint or the per-instruction oracle: what it decides, and how
    /// many passes it ran.
    fn outcome<'p>(
        prog: &'p Program,
        run: fn(&mut AsmLint<'p>, u32) -> Result<(), LintError>,
        per_instruction: bool,
    ) -> Result<(Outcome, u32), LintError> {
        let mut lint = AsmLint::new(prog, predecode(prog));
        lint.per_instruction = per_instruction;
        run(&mut lint, prog.address_of("handle").unwrap())?;
        let text = |p: Prov| lint.provs[p as usize].to_string();
        let content = lint.content.iter().map(|(&r, &p)| (lint.describe(r), text(p))).collect();
        let escaped = lint.escaped.map(text);
        let mut findings: Vec<Finding> = lint.findings.into_values().collect();
        findings.sort();
        Ok(((findings, content, escaped), lint.passes))
    }

    /// The production lint decides what both oracles do — the
    /// per-instruction fixpoint, and the dense outer loop that re-runs
    /// passes until the tables stop growing: equal findings, content
    /// table and escape flag, or the same error. Returns its outcome
    /// and pass count.
    fn check_oracles(what: &str, prog: &Program) -> Result<(Outcome, u32), LintError> {
        let got = outcome(prog, AsmLint::run, false);
        let decided = |r: Result<(Outcome, u32), LintError>| r.map(|(o, _)| o);
        let want = decided(got.clone());
        let per_instruction = decided(outcome(prog, AsmLint::run, true));
        assert_eq!(want, per_instruction, "{what}: the block fixpoint left its oracle");
        let dense = decided(outcome(prog, AsmLint::run_dense, false));
        assert_eq!(want, dense, "{what}: the read set stopped where the tables still grow");
        got
    }

    /// A bottom-tested loop, hand-written: littlec's loops test at the
    /// top, so its branches all go forward. Here the loop's exit is a
    /// backward branch's fall-through, and `t5` turns secret (from
    /// `state`) only on the loop's second pass: the branch after the
    /// loop names `t5`'s provenance only if the exit is stepped after
    /// the loop has converged, else `t4`'s.
    const BOTTOM_TESTED_LOOP: &str = ".text\nhandle:\n    lbu t3, 0(a1)\n    lw t4, 0(zero)\n    \
        li t1, 3\n.Lloop:\n    mv t5, t3\n    lbu t3, 1(a0)\n    addi t1, t1, -1\n    \
        bnez t1, .Lloop\n    or t6, t5, t4\n    beqz t6, .Ldone\n.Ldone:\n    ret\n";

    /// Hand-written merges of a path that falls through and a path
    /// that jumps: a loop head entered from the code before it and by a
    /// back edge `j`, and the end of an `if` without `else`, reached by
    /// a branch and by its fall-through block. The pointer `t0` is a
    /// stack address on one path and `resp` on the other, so where they
    /// meet it joins to unknown and the secret stored through it
    /// escapes. A merge point that was not a head would see each path's
    /// pointer on its own, and nothing would escape.
    const MERGES: [(&str, &str); 2] = [
        (
            "loop entered by fall-through",
            ".text\nhandle:\n    addi sp, sp, -16\n    mv t0, sp\n    li t1, 3\n.Lhead:\n    \
             lbu t2, 0(a0)\n    sb t2, 0(t0)\n    mv t0, a2\n    addi t1, t1, -1\n    \
             beqz t1, .Ldone\n    j .Lhead\n.Ldone:\n    addi sp, sp, 16\n    ret\n",
        ),
        (
            "if without else",
            ".text\nhandle:\n    addi sp, sp, -16\n    mv t0, sp\n    lbu t1, 0(a1)\n    \
             beqz t1, .Ljoin\n    mv t0, a2\n.Ljoin:\n    lbu t2, 0(a0)\n    sb t2, 0(t0)\n    \
             addi sp, sp, 16\n    ret\n",
        ),
    ];

    #[test]
    fn block_fixpoint_equals_the_per_instruction_oracle_on_seeded_code() {
        let prog = parfait_riscv::assemble(BOTTOM_TESTED_LOOP).unwrap();
        let ((f, _, _), _) = check_oracles("bottom-tested loop", &prog).expect("the loop lints");
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].taint[0], "secret handler state, loaded from state");
        for (what, asm) in MERGES {
            let prog = parfait_riscv::assemble(asm).unwrap();
            let ((_, _, escaped), _) = check_oracles(what, &prog).expect("the merge lints");
            let escaped = escaped.unwrap_or_else(|| panic!("{what}: nothing escaped"));
            assert!(escaped.ends_with("escaped via untracked store"), "{what}: {escaped}");
        }
        let mut findings = 0;
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            for (i, src) in SEEDED.iter().chain(CORPUS).enumerate() {
                let ((f, _, _), _) =
                    check_oracles(&format!("source {i} {opt:?}"), &assemble_src(src, opt))
                        .expect("seeded sources lint");
                findings += f.len();
            }
            for patch in [S3_CLOBBER, S3_SAVED, RA_CLOBBER] {
                check_oracles(&format!("patch {patch:?} {opt:?}"), &patched(opt, patch))
                    .expect("patched handlers lint");
            }
        }
        assert!(findings > 0, "the seeded code must produce findings to compare");
    }

    /// Each app lints clean in one pass at every level, and as both
    /// oracles decide at −O0 and −O2.
    fn check_oracle_on_app(app: &str, src: &str) {
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let (what, prog) = (format!("{app} {opt:?}"), assemble_src(src, opt));
            let ((f, _, _), passes) = match opt {
                OptLevel::O1 => outcome(&prog, AsmLint::run, false),
                _ => check_oracles(&what, &prog),
            }
            .expect("production apps lint");
            assert!(f.is_empty(), "{what}: {f:#?}");
            assert_eq!(passes, 1, "{what}");
        }
    }

    #[test]
    fn block_fixpoint_equals_the_per_instruction_oracle_on_the_hasher() {
        check_oracle_on_app("hasher", &parfait_hsms::firmware::hasher_app_source());
    }

    #[test]
    fn block_fixpoint_equals_the_per_instruction_oracle_on_totp() {
        check_oracle_on_app("totp", &parfait_hsms::totp::totp_app_source());
    }

    #[test]
    fn block_fixpoint_equals_the_per_instruction_oracle_on_ecdsa() {
        check_oracle_on_app("ecdsa", &parfait_hsms::firmware::ecdsa_app_source());
    }

    #[test]
    fn block_fixpoint_fails_where_and_as_the_oracle_does() {
        // Each fault follows a loop, in the block its branch falls
        // through to, which the loop reaches only after converging.
        let handler = |fault: &str| {
            let asm = format!(
                ".text\nhandle:\n    li t1, 3\n.Lloop:\n    addi t1, t1, -1\n    \
                 bnez t1, .Lloop\n    addi t2, t1, 1\n{fault}"
            );
            parfait_riscv::assemble(&asm).unwrap()
        };
        let mut undecodable = handler("    addi t2, t2, 1\n    ret\n");
        undecodable.text[4] = 0;
        for (prog, want) in [
            (
                handler("    call handle\n    ret\n"),
                LintError::Unsupported("recursive call to `handle`".into()),
            ),
            (
                handler("    jr t0\n"),
                LintError::Unsupported("indirect jump `jalr zero, 0(t0)` at 0x00000010".into()),
            ),
            (
                handler("    jal t0, handle\n    ret\n"),
                LintError::Unsupported("jal with link register t0 at 0x00000010".into()),
            ),
            (undecodable, LintError::Asm("undecodable word at 0x00000010: DecodeError(0)".into())),
            (handler(""), LintError::Asm("control flow leaves text at 0x00000010".into())),
        ] {
            let got = check_oracles(&format!("{want:?}"), &prog).unwrap_err();
            assert_eq!(got, want);
        }
    }
}
