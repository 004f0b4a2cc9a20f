//! The build memo: one compile per (app source, system software, opt).
//!
//! Five stages read compiled code. ctcheck's input id hashes the
//! lowered IR and the app's assembly, and its lint reads the assembled
//! app; bound's id hashes the linked firmware text (which its analysis
//! then reads); FPS simulates the ROM image assembled from that text
//! against the app's asm-level spec machine; and the equivalence stage
//! and Starling's obligations 3 and 4 validate that same machine at
//! each of their opt levels (so FPS's spec queries on the validation
//! grid are step-memo hits). All of it is a deterministic function of
//! the clean compile inputs, so this process-wide memo compiles each
//! (app source, system-software source, opt level) once and keeps only
//! what the stages read again: the spec machine, the linked text, the
//! ROM image and the stage input ids. No AST, IR or app assembly text
//! stays in an entry.
//!
//! An entry's parts are made when first asked for. A machine-only
//! level (the validators' −O0 and −O1) compiles the app alone; the
//! first lookup that reads the firmware or an input id also links the
//! app with its system software and assembles the ROM image. The app's
//! compile derives ctcheck's id for the app that asked in passing, as
//! the entry keeps no assembly to hash later (keeping it cost more
//! memory than the hashing costs time).
//!
//! A lookup is a `hit` in `pipeline_firmware_builds_total{outcome}`
//! when it compiled nothing and a `miss` when it compiled: a new part,
//! or the ctcheck id of a second app slug over the same source (the
//! ids hash the slug). A warm request therefore neither compiles nor
//! rehashes compiled text.
//!
//! Tampered apps never touch the memo: a [`Tamper`](crate::Tamper)'s
//! patch is a closure the key cannot see, so they derive their patched
//! text, ROM image and ids on every call (and the equivalence stage and
//! the lint their patched compiles).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use parfait_hsms::platform::{firmware_from_asm, link_asm, Cpu};
use parfait_hsms::syssw;
use parfait_littlec::codegen::{compile_ir, OptLevel};
use parfait_littlec::validate::{asm_machine, asm_machine_of};
use parfait_riscv::model::AsmStateMachine;
use parfait_soc::Firmware;
use parfait_telemetry::metrics::Metrics;

use crate::apps::AppPipeline;
use crate::artifact::{ArtifactHasher, ArtifactId};
use crate::certificate::SCHEMA;
use crate::pipeline::Pipeline;

/// The most builds the memo holds; a new one evicts the least
/// recently used.
pub const CAPACITY: usize = 32;

/// The ROM image FPS simulates and the spec machine it checks against.
pub type FpsBuild = (Firmware, Arc<AsmStateMachine>);

/// The app linked with its system software.
struct Linked {
    /// The linked firmware text, which bound keys on and analyses.
    text: Result<Arc<str>, String>,
    /// The ROM image assembled from `text`.
    rom: Result<Firmware, String>,
}

/// A stage input id's key within a build: the app slug, plus the cpu
/// for bound's (ctcheck's has none).
type IdKey = (String, Option<Cpu>);

/// One memo entry: the clean compile inputs and, once made, the parts
/// they compile to. The system-software source is generated from the
/// app's buffer sizes and names all three, so it also fixes the sizes
/// the spec machine is built with.
struct Build {
    source: String,
    syssw: String,
    opt: OptLevel,
    /// The app compiled alone: its asm-level machine, shared by both
    /// platforms' FPS, the equivalence stage and Starling (and so is
    /// its step memo). It depends on the app alone, so a
    /// system-software link failure leaves it be.
    spec: OnceLock<Result<Arc<AsmStateMachine>, String>>,
    linked: OnceLock<Linked>,
    /// Stage input ids over compiled text.
    ids: Mutex<Vec<(IdKey, Result<ArtifactId, String>)>>,
}

struct Slot {
    hash: u64,
    used: u64,
    build: Arc<Build>,
}

struct Memo {
    tick: u64,
    slots: Vec<Slot>,
}

static MEMO: Mutex<Memo> = Mutex::new(Memo { tick: 0, slots: Vec::new() });

/// How many builds the memo holds now (at most [`CAPACITY`]).
pub fn len() -> usize {
    MEMO.lock().expect("a build memo lookup panicked").slots.len()
}

/// The entry of a clean `app` at `opt`, made empty on first use.
fn lookup(app: &AppPipeline, opt: OptLevel) -> Arc<Build> {
    let syssw = syssw_source(app);
    let mut h = DefaultHasher::new();
    (app.source.as_str(), syssw.as_str(), opt).hash(&mut h);
    let hash = h.finish();
    let mut memo = MEMO.lock().expect("a build memo lookup panicked");
    memo.tick += 1;
    let tick = memo.tick;
    let found = memo.slots.iter_mut().find(|s| {
        let b = &s.build;
        s.hash == hash && b.opt == opt && b.syssw == syssw && b.source == app.source
    });
    if let Some(slot) = found {
        slot.used = tick;
        return Arc::clone(&slot.build);
    }
    if memo.slots.len() >= CAPACITY {
        let lru = (0..memo.slots.len()).min_by_key(|&i| memo.slots[i].used);
        memo.slots.swap_remove(lru.expect("a full memo has a slot"));
    }
    let build = Arc::new(Build {
        source: app.source.clone(),
        syssw,
        opt,
        spec: OnceLock::new(),
        linked: OnceLock::new(),
        ids: Mutex::new(Vec::new()),
    });
    memo.slots.push(Slot { hash, used: tick, build: Arc::clone(&build) });
    build
}

// Parts are made outside the memo's lock; a concurrent lookup of the
// same part waits for this one's. `made` is set when this call made it.
impl Build {
    /// The app compiled alone, and ctcheck's id for `app`'s slug.
    fn spec(&self, app: &AppPipeline, made: &mut bool) -> &Result<Arc<AsmStateMachine>, String> {
        self.spec.get_or_init(|| {
            *made = true;
            let compiled = ctcheck_id(app, self.opt);
            let id = compiled.as_ref().map(|(id, _)| *id).map_err(Clone::clone);
            self.ids
                .lock()
                .expect("a stage id derivation panicked")
                .push(((app.slug.clone(), None), id));
            let sizes = app.sizes;
            asm_machine_of(&compiled?.1, sizes.state, sizes.command, sizes.response)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        })
    }

    /// The app linked with its system software and the ROM image; the
    /// app alone too, so every part a cell's hardware stages read is
    /// made by the first lookup that reads any.
    fn linked(&self, app: &AppPipeline, made: &mut bool) -> &Linked {
        self.spec(app, made);
        self.linked.get_or_init(|| {
            *made = true;
            let text = link_asm(&self.source, &self.syssw, self.opt, |a| a)
                .map(Arc::from)
                .map_err(|e| e.to_string());
            let rom =
                text.clone().and_then(|text| firmware_from_asm(&text).map_err(|e| e.to_string()));
            Linked { text, rom }
        })
    }

    /// The id keyed `(slug, cpu)`, derived and kept on first use.
    fn id(
        &self,
        slug: &str,
        cpu: Option<Cpu>,
        derive: impl FnOnce() -> Result<ArtifactId, String>,
    ) -> Result<ArtifactId, String> {
        let mut ids = self.ids.lock().expect("a stage id derivation panicked");
        if let Some((_, id)) = ids.iter().find(|((s, c), _)| s == slug && *c == cpu) {
            return id.clone();
        }
        let id = derive();
        ids.push(((slug.to_string(), cpu), id.clone()));
        id
    }
}

fn count(metrics: &Metrics, compiled: bool) {
    let outcome = if compiled { "miss" } else { "hit" };
    metrics.counter_with("pipeline_firmware_builds_total", &[("outcome", outcome)]).inc();
}

/// ctcheck's input id — the lowered IR, the app's assembly (patched,
/// for a tampered app: the artifact the lint reads), the rule set and
/// the latency model — and that assembly.
fn ctcheck_id(app: &AppPipeline, opt: OptLevel) -> Result<(ArtifactId, String), String> {
    let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
    let ir = parfait_littlec::ir::lower(&program).map_err(|e| e.to_string())?;
    let mut h = ArtifactHasher::new("stage:ctcheck");
    h.field_u64("schema", SCHEMA as u64)
        .field_str("app", &app.slug)
        .field_str("ruleset", parfait_analyzer::RULESET_VERSION)
        // The lint derives its CT-LATENCY/CT-MEM applicability from the
        // union of the supported cores' contracts, so a contract edit
        // re-lints.
        .field_str("latency-model", &parfait_analyzer::latency_model_fingerprint())
        .field_str("opt", &opt.to_string())
        .field_str("ir", &format!("{ir:?}"));
    let asm = patched(app, compile_ir(ir, opt));
    h.field_str("asm", &asm);
    if let Some(t) = &app.tamper {
        h.field_str("tamper", &t.fingerprint);
    }
    Ok((h.finish(), asm))
}

/// bound's input id: the linked text, the bound rule set and the
/// core's contract (its latency model prices every instruction).
fn bound_id(app: &AppPipeline, cpu: Cpu, opt: OptLevel, linked: &str) -> ArtifactId {
    let mut h = ArtifactHasher::new("stage:bound");
    h.field_u64("schema", SCHEMA as u64)
        .field_str("app", &app.slug)
        .field_str("ruleset", parfait_analyzer::BOUND_RULESET_VERSION)
        .field_str("asm", linked)
        .field_str("contract", &Pipeline::core_contract(cpu).canonical())
        .field_str("cpu", &cpu.to_string())
        .field_str("opt", &opt.to_string());
    if let Some(t) = &app.tamper {
        h.field_str("tamper", &t.fingerprint);
    }
    h.finish()
}

fn syssw_source(app: &AppPipeline) -> String {
    syssw::syssw_source(app.sizes.state, app.sizes.command, app.sizes.response)
}

/// `asm` with a tampered app's patch applied.
fn patched(app: &AppPipeline, asm: String) -> String {
    match app.tamper.as_ref().and_then(|t| t.patch_asm.as_ref()) {
        Some(p) => p(asm),
        None => asm,
    }
}

/// The linked text of a tampered app: its patch applied to the
/// compiled app and system software.
fn tampered_link(app: &AppPipeline, opt: OptLevel) -> Result<String, String> {
    link_asm(&app.source, &syssw_source(app), opt, |a| patched(app, a)).map_err(|e| e.to_string())
}

/// ctcheck's input id for `app` at `opt`.
pub fn ctcheck_inputs(
    app: &AppPipeline,
    opt: OptLevel,
    metrics: &Metrics,
) -> Result<ArtifactId, String> {
    if app.tamper.is_some() {
        return ctcheck_id(app, opt).map(|(id, _)| id);
    }
    let build = lookup(app, opt);
    let mut made = false;
    build.linked(app, &mut made);
    let id = build.id(&app.slug, None, || {
        made = true;
        ctcheck_id(app, opt).map(|(id, _)| id)
    });
    count(metrics, made);
    id
}

/// bound's input id for `app` on `cpu` at `opt`, and the linked text
/// it hashes (the text the bound analysis certifies).
pub fn bound_inputs(
    app: &AppPipeline,
    cpu: Cpu,
    opt: OptLevel,
    metrics: &Metrics,
) -> Result<(ArtifactId, Arc<str>), String> {
    if app.tamper.is_some() {
        let linked = tampered_link(app, opt)?;
        return Ok((bound_id(app, cpu, opt, &linked), Arc::from(linked)));
    }
    let build = lookup(app, opt);
    let mut made = false;
    let linked = build.linked(app, &mut made).text.clone();
    count(metrics, made);
    let linked = linked?;
    let id = build.id(&app.slug, Some(cpu), || Ok(bound_id(app, cpu, opt, &linked)))?;
    Ok((id, linked))
}

/// The ROM image FPS runs for `app` at `opt` (before any firmware
/// patch) and the spec machine it is held to. The spec always comes
/// from the clean compile, so a tampered device is held against the
/// untampered contract; a tampered app gets a fresh spec machine (and
/// step memo) of its own.
pub fn fps_build(app: &AppPipeline, opt: OptLevel, metrics: &Metrics) -> Result<FpsBuild, String> {
    if app.tamper.is_some() {
        let fw = firmware_from_asm(&tampered_link(app, opt)?).map_err(|e| e.to_string())?;
        return Ok((fw, clean_spec(app, opt)?));
    }
    let build = lookup(app, opt);
    let mut made = false;
    let rom = build.linked(app, &mut made).rom.clone();
    count(metrics, made);
    Ok((rom?, build.spec(app, &mut made).clone()?))
}

/// The asm-level machine of `app`'s clean compile at `opt`: the memo's
/// shared one, whose step memo FPS's spec queries consult. Made alone
/// when no lookup has read the build before: a level that only
/// validates compiles the app and nothing else. A tampered app gets a
/// fresh one of its own.
pub fn spec_machine(
    app: &AppPipeline,
    opt: OptLevel,
    metrics: &Metrics,
) -> Result<Arc<AsmStateMachine>, String> {
    if app.tamper.is_some() {
        return clean_spec(app, opt);
    }
    let build = lookup(app, opt);
    let mut made = false;
    let spec = build.spec(app, &mut made).clone();
    count(metrics, made);
    spec
}

/// A fresh asm-level machine of `app`'s clean compile, outside the memo.
fn clean_spec(app: &AppPipeline, opt: OptLevel) -> Result<Arc<AsmStateMachine>, String> {
    let sizes = app.sizes;
    let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
    asm_machine(&program, opt, sizes.state, sizes.command, sizes.response)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}
