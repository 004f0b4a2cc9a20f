//! The staged proof pipeline.
//!
//! Seven typed stages — speccheck, lockstep, equivalence, ctcheck,
//! bound, FPS and contract, in compose-chain order — each hash their
//! complete input set ([`crate::artifact`]), consult the certificate
//! cache ([`crate::cache`]), and on a miss run the underlying checker
//! (speccheck census, Starling, littlec translation validation, the
//! `parfait-analyzer` constant-time lint, the whole-firmware
//! resource-bound analysis, Knox2, the leakage-contract stimulus
//! battery) and mint a [`StageCertificate`]. The order they execute in
//! is declared once, in the [`crate::graph`] stage table; a verified
//! (app × cpu × opt) cell composes its stage certificates into one
//! end-to-end claim via [`crate::certificate::compose`] — the
//! executable form of the paper's transitivity theorem.
//!
//! This module is the **single** home of the firmware/spec/SoC build
//! plumbing the bench binaries used to duplicate: [`Pipeline::run_fps`]
//! is the one place a real and an ideal SoC are constructed and driven.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use parfait::levels::Level;
use parfait_hsms::platform::{build_firmware_parts, make_soc_with, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::{check_fps_parallel, CircuitEmulator, FpsConfig, FpsObserver, FpsReport};
use parfait_littlec::codegen::OptLevel;
use parfait_littlec::validate::{asm_machine, validate_handle_patched};
use parfait_parallel::parallel_map;
use parfait_riscv::model::AsmStateMachine;
use parfait_soc::{Firmware, Soc};
use parfait_telemetry::Telemetry;

use crate::apps::AppPipeline;
use crate::artifact::{ArtifactHasher, ArtifactId};
use crate::cache::{CertCache, Claim};
use crate::certificate::{ComposedCertificate, StageCertificate, StageKind, SCHEMA};
use crate::graph::{run_cells, Cell, StageSet};

/// The result of running (or short-circuiting) one stage.
#[derive(Clone, Debug)]
pub struct StageOutcome {
    /// The certificate — byte-identical whether cached or fresh.
    pub certificate: StageCertificate,
    /// Wall time this invocation spent (lookup only, on a hit).
    pub wall: Duration,
    /// Whether the certificate came from the cache.
    pub cache_hit: bool,
    /// The full FPS report, for stages that ran the hardware check
    /// fresh (`None` on cache hits and software stages).
    pub fps: Option<FpsReport>,
}

/// One fully verified (cpu × opt) cell of an app's matrix.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The platform verified.
    pub cpu: Cpu,
    /// The optimization level verified.
    pub opt: OptLevel,
    /// The outcomes of the stages run, in compose-chain order
    /// ([`StageKind::ALL`]).
    pub stages: Vec<StageOutcome>,
    /// The stages' certificates, composed.
    pub composed: ComposedCertificate,
}

impl CellReport {
    /// Whether every stage was a cache hit.
    pub fn fully_cached(&self) -> bool {
        self.stages.iter().all(|s| s.cache_hit)
    }
}

/// The verification engine: a certificate cache plus telemetry.
pub struct Pipeline {
    /// The certificate store consulted before any stage runs.
    pub cache: CertCache,
    /// Telemetry for spans and cache-hit counters.
    pub tel: Telemetry,
}

impl Pipeline {
    /// A pipeline on the environment's cache (`PARFAIT_CACHE_DIR`).
    pub fn from_env(tel: Telemetry) -> Pipeline {
        Pipeline { cache: CertCache::from_env(), tel }
    }

    /// A pipeline on an explicit cache.
    pub fn new(cache: CertCache, tel: Telemetry) -> Pipeline {
        Pipeline { cache, tel }
    }

    /// The metrics registry this pipeline accounts to (the cache's).
    pub fn metrics(&self) -> &parfait_telemetry::metrics::Metrics {
        self.cache.metrics()
    }

    /// Time a stage's input derivation (frontend + lowering + hashing
    /// for ctcheck, pure hashing for the cheap stages) into
    /// `pipeline_artifact_hash_us{stage}`.
    fn timed_inputs<T>(&self, stage: StageKind, derive: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = derive();
        self.metrics()
            .histogram_with("pipeline_artifact_hash_us", &[("stage", stage.as_str())])
            .record_duration(t0.elapsed());
        out
    }

    /// Cache-check-run-store skeleton shared by every stage. Errors are
    /// the checker's own; the stage runner ([`crate::graph`]) prefixes
    /// them with `[stage]`.
    fn run_stage(
        &self,
        stage: StageKind,
        app: &str,
        claim: (String, String),
        inputs: ArtifactId,
        run: impl FnOnce() -> Result<(Vec<(String, i64)>, Option<FpsReport>), String>,
    ) -> Result<StageOutcome, String> {
        let t0 = Instant::now();
        let _span = self.tel.span(&format!("pipeline.{stage}"));
        let stage_labels = [("stage", stage.as_str())];
        let wall_us = self.metrics().histogram_with("pipeline_stage_wall_us", &stage_labels);
        let cpu_us = self.metrics().histogram_with("pipeline_stage_cpu_us", &stage_labels);
        let runs = |outcome: &str| {
            self.metrics()
                .counter_with(
                    "pipeline_stage_runs_total",
                    &[("stage", stage.as_str()), ("outcome", outcome)],
                )
                .inc();
        };
        // Single-flight claim: a warm key (or another thread's flight
        // this claim joined) is a hit; a cold key makes this thread the
        // leader, obligated to run the stage and publish the outcome.
        let flight = match self.cache.claim(stage, inputs) {
            Claim::Ready(certificate) => {
                self.tel.count("pipeline.cache.hit", 1);
                runs("hit");
                let wall = t0.elapsed();
                wall_us.record_duration(wall);
                cpu_us.record_duration(wall);
                return Ok(StageOutcome { certificate, wall, cache_hit: true, fps: None });
            }
            // The flight this claim joined failed: its leader's error.
            Claim::Failed(e) => return Err(e),
            Claim::Leader(flight) => flight,
        };
        self.tel.count("pipeline.cache.miss", 1);
        let (stats, fps) = match run() {
            Ok(out) => out,
            Err(e) => {
                flight.fail(&e);
                return Err(e);
            }
        };
        runs("miss");
        let certificate =
            StageCertificate { schema: SCHEMA, stage, app: app.to_string(), claim, inputs, stats };
        flight.complete(&certificate);
        let wall = t0.elapsed();
        wall_us.record_duration(wall);
        // CPU time: the parallel FPS checker reports aggregate worker
        // busy time; single-threaded stages are their own wall time.
        cpu_us.record_duration(fps.as_ref().map(|r| r.cpu).unwrap_or(wall));
        Ok(StageOutcome { certificate, wall, cache_hit: false, fps })
    }

    /// `speccheck` — spec-level non-leakage census (`parfait::speccheck`).
    ///
    /// Keyed by the spec's *observed behavior* (the encoded trace over
    /// the sample grid), not by any source text: editing the littlec
    /// implementation leaves this stage cached, while any behavioral
    /// spec change re-runs it.
    pub fn speccheck_stage(&self, app: &AppPipeline) -> Result<StageOutcome, String> {
        let trace = (app.spec_probe)();
        let inputs = self.timed_inputs(StageKind::SpecCheck, || {
            ArtifactHasher::new("stage:speccheck")
                .field_u64("schema", SCHEMA as u64)
                .field_str("app", &app.slug)
                .field("behavior", &trace.digest().0)
                .finish()
        });
        let spec = Level::Spec.label(None);
        self.run_stage(StageKind::SpecCheck, &app.slug, (spec.clone(), spec), inputs, || {
            Ok((
                vec![
                    ("commands".into(), trace.commands as i64),
                    ("state_dependent".into(), trace.state_dependent as i64),
                    ("rows".into(), trace.rows.len() as i64),
                ],
                None,
            ))
        })
    }

    /// `lockstep` — IPR by lockstep: the full Starling software
    /// verification (codec inversion, lockstep simulation, translation
    /// validation, world equivalence).
    pub fn lockstep_stage(&self, app: &AppPipeline) -> Result<StageOutcome, String> {
        let trace = (app.spec_probe)();
        let inputs = self.timed_inputs(StageKind::Lockstep, || {
            ArtifactHasher::new("stage:lockstep")
                .field_u64("schema", SCHEMA as u64)
                .field_str("app", &app.slug)
                .field_str("source", &app.source)
                .field_u64("state_size", app.sizes.state as u64)
                .field_u64("command_size", app.sizes.command as u64)
                .field_u64("response_size", app.sizes.response as u64)
                .field("spec-behavior", &trace.digest().0)
                .field_str("config", &app.starling_fingerprint)
                .finish()
        });
        let claim = (Level::Spec.label(None), Level::LowStar.label(None));
        self.run_stage(StageKind::Lockstep, &app.slug, claim, inputs, || {
            let report = (app.starling)(&self.tel)?;
            Ok((
                vec![
                    ("lockstep_cases".into(), report.lockstep_cases as i64),
                    ("validation_cases".into(), report.validation_cases as i64),
                    ("ipr_operations".into(), report.ipr_operations as i64),
                ],
                None,
            ))
        })
    }

    /// The deterministic (state, command) grid the equivalence stage
    /// validates on: both provisioned and default states, each against
    /// the workload, an all-invalid command, and all-zeros.
    fn equivalence_cases(app: &AppPipeline) -> Vec<(Vec<u8>, Vec<u8>)> {
        let commands =
            [app.workload.clone(), vec![0xEE; app.sizes.command], vec![0u8; app.sizes.command]];
        let mut cases = Vec::new();
        for state in [&app.dummy_state, &app.secret_state] {
            for cmd in &commands {
                cases.push((state.clone(), cmd.clone()));
            }
        }
        cases
    }

    /// `equivalence` — compiler equivalence: translation validation of
    /// `handle` across all four levels (interp, IR, asm) at every
    /// opt level the app's verification covers (plus the target
    /// level), over the deterministic case grid.
    pub fn equivalence_stage(
        &self,
        app: &AppPipeline,
        opt: OptLevel,
    ) -> Result<StageOutcome, String> {
        let cases = Self::equivalence_cases(app);
        let mut levels = app.opt_levels.clone();
        if !levels.contains(&opt) {
            levels.push(opt);
        }
        let inputs = self.timed_inputs(StageKind::Equivalence, || {
            let mut h = ArtifactHasher::new("stage:equivalence");
            h.field_u64("schema", SCHEMA as u64)
                .field_str("app", &app.slug)
                .field_str("source", &app.source)
                .field_u64("response_size", app.sizes.response as u64)
                .field_str("opt", &opt.to_string());
            for level in &levels {
                h.field_str("level", &level.to_string());
            }
            for (state, cmd) in &cases {
                h.field("case-state", state).field("case-cmd", cmd);
            }
            if let Some(t) = &app.tamper {
                h.field_str("tamper", &t.fingerprint);
            }
            h.finish()
        });
        let opt_label = opt.to_string();
        let claim = (Level::LowStar.label(None), Level::Asm.label(Some(&opt_label)));
        self.run_stage(StageKind::Equivalence, &app.slug, claim, inputs, || {
            let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
            let patch = app.tamper.as_ref().and_then(|t| t.patch_asm.clone());
            for level in &levels {
                let patch = patch.clone();
                validate_handle_patched(&program, *level, app.sizes.response, &cases, |a| {
                    match patch {
                        Some(p) => p(a),
                        None => a,
                    }
                })
                .map_err(|e| format!("{level}: {e}"))?;
            }
            Ok((
                vec![
                    ("cases".into(), cases.len() as i64),
                    ("opt_levels".into(), levels.len() as i64),
                ],
                None,
            ))
        })
    }

    /// `ctcheck` — static constant-time lint: secret-taint analysis over
    /// the littlec IR and abstract interpretation over the assembled
    /// firmware (`parfait-analyzer`), gating the pipeline on zero
    /// findings. The claim is a self-loop at the asm level: the lint
    /// adds no refinement step, it certifies a leakage *hygiene*
    /// property of the artifact FPS is about to simulate.
    ///
    /// Keyed by the lowered IR, the generated assembly, and the rule
    /// set version — an optimizer change that leaves the assembly
    /// byte-identical stays cached; a rule-set bump re-lints the world.
    pub fn ctcheck_stage(&self, app: &AppPipeline, opt: OptLevel) -> Result<StageOutcome, String> {
        let patch = app.tamper.as_ref().and_then(|t| t.patch_asm.clone());
        // This stage's input derivation is the expensive one — it
        // compiles — so its artifact-hash histogram dominates the family.
        let inputs = self.timed_inputs(StageKind::CtCheck, || -> Result<ArtifactId, String> {
            let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
            let ir = parfait_littlec::ir::lower(&program).map_err(|e| e.to_string())?;
            let mut asm = parfait_littlec::compile(&program, opt).map_err(|e| e.to_string())?;
            if let Some(p) = &patch {
                asm = p(asm); // key the stage on the artifact it actually lints
            }
            let mut h = ArtifactHasher::new("stage:ctcheck");
            h.field_u64("schema", SCHEMA as u64)
                .field_str("app", &app.slug)
                .field_str("ruleset", parfait_analyzer::RULESET_VERSION)
                // The lint derives its CT-LATENCY/CT-MEM applicability
                // from the union of the supported cores' contracts, so
                // a contract edit re-lints.
                .field_str("latency-model", &parfait_analyzer::latency_model_fingerprint())
                .field_str("opt", &opt.to_string())
                .field_str("ir", &format!("{ir:?}"))
                .field_str("asm", &asm);
            if let Some(t) = &app.tamper {
                h.field_str("tamper", &t.fingerprint);
            }
            Ok(h.finish())
        })?;
        let opt_label = opt.to_string();
        let asm_level = Level::Asm.label(Some(&opt_label));
        let claim = (asm_level.clone(), asm_level);
        self.run_stage(StageKind::CtCheck, &app.slug, claim, inputs, || {
            let report =
                parfait_analyzer::lint_source_with(&app.source, opt, &self.tel, |a| match patch {
                    Some(p) => p(a),
                    None => a,
                })
                .map_err(|e| e.to_string())?;
            if !report.is_clean() {
                let mut msg = format!("{} constant-time violation(s):", report.findings.len());
                for f in &report.findings {
                    msg.push_str("\n  ");
                    msg.push_str(&f.to_string());
                }
                return Err(msg);
            }
            Ok((
                vec![
                    ("findings".into(), 0),
                    ("ir_insts".into(), report.ir_insts as i64),
                    ("asm_instrs".into(), report.asm_instrs as i64),
                ],
                None,
            ))
        })
    }

    /// The FPS stage's input fingerprint. Folds the core's contract
    /// text: the dual-world comparison interprets cycle counts and
    /// leak events through the declared model.
    fn fps_inputs(
        app: &AppPipeline,
        cpu: Cpu,
        opt: OptLevel,
        timeout: u64,
        contract: &parfait_cores::LeakageContract,
    ) -> ArtifactId {
        let mut h = ArtifactHasher::new("stage:fps");
        h.field_u64("schema", SCHEMA as u64)
            .field_str("app", &app.slug)
            .field_str("source", &app.source)
            .field_u64("state_size", app.sizes.state as u64)
            .field_u64("command_size", app.sizes.command as u64)
            .field_u64("response_size", app.sizes.response as u64)
            .field_str("cpu", &cpu.to_string())
            .field_str("contract", &contract.canonical())
            .field_str("opt", &opt.to_string())
            .field_u64("timeout", timeout)
            .field("secret", &app.secret_state)
            .field("dummy", &app.dummy_state);
        for op in app.fps_script() {
            h.field_str("script-op", &format!("{op:?}"));
        }
        if let Some(t) = &app.tamper {
            h.field_str("tamper", &t.fingerprint);
        }
        h.finish()
    }

    /// The contract stage's input fingerprint: everything the battery
    /// verdict depends on, dominated by the contract's canonical text.
    fn contract_inputs(
        app: &AppPipeline,
        cpu: Cpu,
        contract: &parfait_cores::LeakageContract,
    ) -> ArtifactId {
        let mut h = ArtifactHasher::new("stage:contract");
        h.field_u64("schema", SCHEMA as u64)
            .field_str("app", &app.slug)
            .field_str("cpu", &cpu.to_string())
            .field_str("contract", &contract.canonical())
            .field_u64("battery", parfait_cores::contract::BATTERY_VERSION as u64);
        if let Some(t) = &app.tamper {
            h.field_str("tamper", &t.fingerprint);
        }
        h.finish()
    }

    /// The exported leakage contract of a platform's core.
    pub fn core_contract(cpu: Cpu) -> &'static parfait_cores::LeakageContract {
        match cpu {
            Cpu::Ibex => parfait_cores::ibex::contract(),
            Cpu::Pico => parfait_cores::pico::contract(),
        }
    }

    /// The SoC memory map as the resource-bound analysis sees it: the
    /// writable regions stores must land in, and the floor the stack
    /// may never grow below.
    fn bound_regions() -> parfait_analyzer::BoundRegions {
        use parfait_soc::{FRAM_BASE, FRAM_SIZE, IO_BASE, RAM_BASE, ROM_BASE, STACK_FLOOR};
        parfait_analyzer::BoundRegions {
            text_base: ROM_BASE,
            data_base: RAM_BASE,
            // The four UART handshake registers.
            mmio: (IO_BASE, IO_BASE + 16),
            fram: (FRAM_BASE, FRAM_BASE + FRAM_SIZE),
            stack_floor: STACK_FLOOR,
        }
    }

    /// The linked whole-firmware assembly, exactly as
    /// [`build_firmware_parts`] links it: app + generated system
    /// software compiled at `opt`, the tamper patch applied, the boot
    /// shim prepended. This is the text the bound analysis certifies —
    /// the same text `run_fps` assembles into the ROM image.
    fn linked_asm(app: &AppPipeline, opt: OptLevel) -> Result<String, String> {
        let sizes = app.sizes;
        let syssw_src = syssw::syssw_source(sizes.state, sizes.command, sizes.response);
        let mut source = app.source.clone();
        source.push_str(&syssw_src);
        let program = parfait_littlec::frontend(&source).map_err(|e| e.to_string())?;
        let mut compiled = parfait_littlec::compile(&program, opt).map_err(|e| e.to_string())?;
        if let Some(p) = app.tamper.as_ref().and_then(|t| t.patch_asm.clone()) {
            compiled = p(compiled);
        }
        let mut asm = String::from(syssw::BOOT_ASM);
        asm.push_str(&compiled);
        Ok(asm)
    }

    /// `bound` — resource bounds: whole-firmware static analysis over
    /// the linked text (`parfait_analyzer::bound_asm`). Recovers the
    /// call graph (rejecting recursion and unresolvable indirect
    /// calls), proves a worst-case stack depth that stays inside the
    /// stack region, and certifies a WCET cycle bound for one command
    /// round-trip under the core's declared leakage-contract latency
    /// model, using the loop bounds littlec codegen annotates.
    ///
    /// The claim is a self-loop at the asm level, like the lint: the
    /// analysis adds no refinement step, it certifies a *resource*
    /// property of the artifact FPS is about to simulate — and FPS
    /// consumes the certified WCET as its derived cycle budget.
    ///
    /// Keyed by the linked assembly text, the bound rule-set version,
    /// and the contract's canonical text (the latency model prices
    /// every instruction): an optimizer change that leaves the linked
    /// text byte-identical stays cached; a contract edit re-bounds.
    pub fn bound_stage(
        &self,
        app: &AppPipeline,
        cpu: Cpu,
        opt: OptLevel,
    ) -> Result<StageOutcome, String> {
        let contract = Self::core_contract(cpu);
        let (inputs, linked) =
            self.timed_inputs(StageKind::Bound, || -> Result<(ArtifactId, String), String> {
                let linked = Self::linked_asm(app, opt)?;
                let mut h = ArtifactHasher::new("stage:bound");
                h.field_u64("schema", SCHEMA as u64)
                    .field_str("app", &app.slug)
                    .field_str("ruleset", parfait_analyzer::BOUND_RULESET_VERSION)
                    .field_str("asm", &linked)
                    .field_str("contract", &contract.canonical())
                    .field_str("cpu", &cpu.to_string())
                    .field_str("opt", &opt.to_string());
                if let Some(t) = &app.tamper {
                    h.field_str("tamper", &t.fingerprint);
                }
                Ok((h.finish(), linked))
            })?;
        let opt_label = opt.to_string();
        let asm_level = Level::Asm.label(Some(&opt_label));
        let claim = (asm_level.clone(), asm_level);
        let regions = Self::bound_regions();
        let outcome = self.run_stage(StageKind::Bound, &app.slug, claim, inputs, || {
            let report = parfait_analyzer::bound_asm(&linked, "_start", contract, &regions)
                .map_err(|e| e.to_string())?;
            Ok((
                vec![
                    ("wcet_cycles".into(), report.wcet_cycles.min(i64::MAX as u64) as i64),
                    ("stack_depth".into(), report.stack_depth as i64),
                    ("stack_top".into(), report.stack_top as i64),
                    ("functions".into(), report.functions as i64),
                    ("loops".into(), report.loops as i64),
                    ("instructions".into(), report.instructions as i64),
                ],
                None,
            ))
        })?;
        // The `bound_` family is read off the certificate, so warm
        // (fully cached) runs expose it just like cold ones.
        let cert = &outcome.certificate;
        let cpu_label = cpu.to_string();
        let labels =
            [("app", app.slug.as_str()), ("cpu", cpu_label.as_str()), ("opt", opt_label.as_str())];
        self.metrics()
            .counter_with("bound_functions_total", &labels)
            .add(cert.stat("functions").unwrap_or(0).max(0) as u64);
        self.metrics()
            .counter_with("bound_loops_total", &labels)
            .add(cert.stat("loops").unwrap_or(0).max(0) as u64);
        self.metrics()
            .gauge_with("bound_wcet_cycles", &labels)
            .set(cert.stat("wcet_cycles").unwrap_or(0) as f64);
        self.metrics()
            .gauge_with("bound_stack_depth", &labels)
            .set(cert.stat("stack_depth").unwrap_or(0) as f64);
        Ok(outcome)
    }

    /// `contract` — contract check: drive the platform's core through the
    /// per-instruction-class stimulus battery and hold its measured
    /// cycle counts, leak events, and data-bus trace to the clauses of
    /// its exported [`parfait_cores::LeakageContract`]. A core whose
    /// divider leaks more than its contract admits fails *here*, with
    /// a named instruction class, instead of surfacing later as an
    /// opaque FPS divergence.
    ///
    /// The claim is a self-loop at the SoC level: the battery adds no
    /// refinement step, it certifies that the observable model every
    /// other stage assumes (lint applicability, FPS leak
    /// classification) is the model the silicon actually exhibits.
    /// Keyed by the contract's canonical text and the battery version,
    /// so editing a contract invalidates exactly the dependent stages.
    pub fn contract_stage(&self, app: &AppPipeline, cpu: Cpu) -> Result<StageOutcome, String> {
        self.contract_stage_with(app, cpu, Self::core_contract(cpu))
    }

    /// [`contract_stage`](Self::contract_stage) against an explicit
    /// contract instead of the core's exported one — the seam for
    /// checking a candidate re-declaration (and for the cache tests:
    /// an edited contract must miss where the exported one hits).
    pub fn contract_stage_with(
        &self,
        app: &AppPipeline,
        cpu: Cpu,
        contract: &parfait_cores::LeakageContract,
    ) -> Result<StageOutcome, String> {
        let core_fault = app.tamper.as_ref().and_then(|t| t.core_fault);
        let inputs =
            self.timed_inputs(StageKind::Contract, || Self::contract_inputs(app, cpu, contract));
        let cpu_label = cpu.to_string();
        let soc = Level::Soc.label(Some(&cpu_label));
        self.run_stage(StageKind::Contract, &app.slug, (soc.clone(), soc), inputs, || {
            let mut make = || -> Box<dyn parfait_cores::Core> {
                match cpu {
                    Cpu::Ibex => Box::new(parfait_cores::IbexCore::with_fault(0, core_fault)),
                    Cpu::Pico => Box::new(parfait_cores::PicoCore::with_fault(0, core_fault)),
                }
            };
            let report =
                parfait_cores::check_core(&mut make, contract).map_err(|e| e.to_string())?;
            self.metrics()
                .counter_with("contract_stimuli_total", &[("cpu", &cpu_label)])
                .add(report.total as u64);
            let mut stats = vec![
                ("stimuli_total".to_string(), report.total as i64),
                ("measured_retirements".to_string(), report.measured_retirements as i64),
                ("contract_revision".to_string(), contract.revision as i64),
            ];
            for (class, n) in &report.stimuli {
                stats.push((format!("stimuli_{class}"), *n as i64));
            }
            Ok((stats, None))
        })
    }

    /// `fps` — wire-level functional-physical simulation on a
    /// real platform (cached per (app × cpu × opt) cell), against the
    /// cell's verified bound certificate.
    ///
    /// The FPS cycle budget is *derived* from the certified WCET
    /// ([`FpsConfig::resolve_timeout`]), so a firmware that would wedge
    /// past its proven bound is cut off in proportion to its own
    /// certificate instead of the last-resort constant
    /// (`PARFAIT_TIMEOUT` stays an explicit override).
    ///
    /// Keyed (among the build inputs) on the core's contract text: the
    /// dual-world comparison interprets cycle counts and leak events
    /// through the declared model, so a contract edit re-runs it.
    pub fn fps_stage_bounded(
        &self,
        app: &AppPipeline,
        cpu: Cpu,
        opt: OptLevel,
        obs: &FpsObserver,
        threads: usize,
        bound: &StageOutcome,
    ) -> Result<StageOutcome, String> {
        let wcet = bound.certificate.stat("wcet_cycles").filter(|&w| w > 0).map(|w| w as u64);
        let timeout = FpsConfig::resolve_timeout(wcet);
        let inputs = self.timed_inputs(StageKind::Fps, || {
            Self::fps_inputs(app, cpu, opt, timeout, Self::core_contract(cpu))
        });
        let opt_label = opt.to_string();
        let cpu_label = cpu.to_string();
        let claim = (Level::Asm.label(Some(&opt_label)), Level::Soc.label(Some(&cpu_label)));
        let outcome = self.run_stage(StageKind::Fps, &app.slug, claim, inputs, || {
            let (report, stack_min) = self.run_fps(app, cpu, opt, obs, threads, timeout)?;
            let mut stats = vec![
                ("cycles".into(), report.cycles as i64),
                ("commands".into(), report.commands as i64),
                ("spec_queries".into(), report.spec_queries as i64),
            ];
            if let Some(low) = stack_min {
                // Lowest stack address the real SoC stored to across
                // the whole script — the dynamic watermark the
                // certified static depth must dominate.
                stats.push(("stack_min_addr".into(), low as i64));
            }
            Ok((stats, Some(report)))
        })?;
        // Certified-vs-observed slack, off the two certificates so a
        // fully cached cell still reports it.
        if let (Some(wcet), Some(cycles)) =
            (bound.certificate.stat("wcet_cycles"), outcome.certificate.stat("cycles"))
        {
            if cycles > 0 {
                self.metrics()
                    .gauge_with(
                        "bound_wcet_slack_ratio",
                        &[
                            ("app", app.slug.as_str()),
                            ("cpu", cpu_label.as_str()),
                            ("opt", opt_label.as_str()),
                        ],
                    )
                    .set(wcet as f64 / cycles as f64);
            }
        }
        Ok(outcome)
    }

    /// A clean (untampered) firmware image plus its assembly-level spec
    /// machine, memoized process-wide on the exact compile inputs.
    ///
    /// The compile is deterministic in (app source, system software
    /// source, opt level), and `run_fps` recompiles it for every bench
    /// leg, every CPU of a matrix row, and every thread count of a
    /// scaling sweep — identical work each time, dominating FPS setup.
    /// Tampered builds never consult the memo: their patches are
    /// arbitrary closures whose effect is not captured by the key.
    /// Hits and misses land in `pipeline_firmware_builds_total{outcome}`
    /// (deterministic per run, so the perf ratchet can key on them).
    fn built_firmware(
        &self,
        app: &AppPipeline,
        syssw_src: &str,
        opt: OptLevel,
    ) -> Result<(Firmware, Arc<AsmStateMachine>), String> {
        type Memo = Mutex<HashMap<(String, String, String), (Firmware, Arc<AsmStateMachine>)>>;
        static MEMO: OnceLock<Memo> = OnceLock::new();
        let memo = MEMO.get_or_init(Default::default);
        let builds = |outcome: &str| {
            self.metrics()
                .counter_with("pipeline_firmware_builds_total", &[("outcome", outcome)])
                .inc();
        };
        let key = (app.source.clone(), syssw_src.to_string(), opt.to_string());
        if let Some(built) = memo.lock().unwrap().get(&key) {
            builds("hit");
            return Ok(built.clone());
        }
        // Compile outside the lock; a racing duplicate compile is
        // benign (last writer wins, both results are identical).
        let sizes = app.sizes;
        let fw =
            build_firmware_parts(&app.source, syssw_src, opt, |a| a).map_err(|e| e.to_string())?;
        let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
        let spec = asm_machine(&program, opt, sizes.state, sizes.command, sizes.response)
            .map_err(|e| e.to_string())?;
        builds("miss");
        let built = (fw, Arc::new(spec));
        let mut memo = memo.lock().unwrap();
        if memo.len() >= 32 {
            memo.clear();
        }
        memo.insert(key, built.clone());
        Ok(built)
    }

    /// Run the hardware check itself, bypassing the cache — the single
    /// place real/ideal SoCs are built and driven (used by
    /// [`Pipeline::fps_stage_bounded`] and, uncached, by the FPS
    /// scaling benchmark). Also returns the lowest stack address the
    /// real SoC stored to (its whole-run high-water mark), which is
    /// deterministic: the parallel checker's pre-pass drives the real
    /// SoC alone through the entire script.
    pub fn run_fps(
        &self,
        app: &AppPipeline,
        cpu: Cpu,
        opt: OptLevel,
        obs: &FpsObserver,
        threads: usize,
        timeout: u64,
    ) -> Result<(FpsReport, Option<u32>), String> {
        let sizes = app.sizes;
        let tamper = app.tamper.as_ref();
        // Tampering strikes the *built artifacts and hardware*; the spec
        // the emulator queries stays derived from the clean compile, so a
        // tampered device is held against the untampered contract.
        let syssw_src = syssw::syssw_source(sizes.state, sizes.command, sizes.response);
        let (mut fw, spec) = if tamper.is_none() {
            self.built_firmware(app, &syssw_src, opt)?
        } else {
            let patch = tamper.and_then(|t| t.patch_asm.clone());
            let fw = build_firmware_parts(&app.source, &syssw_src, opt, |a| match patch {
                Some(p) => p(a),
                None => a,
            })
            .map_err(|e| e.to_string())?;
            let program = parfait_littlec::frontend(&app.source).map_err(|e| e.to_string())?;
            let spec = asm_machine(&program, opt, sizes.state, sizes.command, sizes.response)
                .map_err(|e| e.to_string())?;
            (fw, Arc::new(spec))
        };
        if let Some(pf) = tamper.and_then(|t| t.patch_firmware.clone()) {
            pf(&mut fw);
        }
        let core_fault = tamper.and_then(|t| t.core_fault);
        let mut real = make_soc_with(cpu, fw.clone(), &app.secret_state, core_fault);
        let mut dummy_soc = make_soc_with(cpu, fw, &app.dummy_state, core_fault);
        if let Some(bug) = tamper.and_then(|t| t.soc_bug) {
            real.seed_bug(bug);
            dummy_soc.seed_bug(bug);
        }
        let mut emu =
            CircuitEmulator::new(dummy_soc, &*spec, app.secret_state.clone(), sizes.command);
        if tamper.is_some_and(|t| t.emulator_desync) {
            emu.seed_desync();
        }
        let cfg = FpsConfig {
            command_size: sizes.command,
            response_size: sizes.response,
            timeout,
            state_size: sizes.state,
        };
        let state_size = sizes.state;
        let project = move |soc: &Soc| syssw::active_state(&soc.fram_bytes(0, 256), state_size);
        let script = app.fps_script();
        let report = check_fps_parallel(&mut real, &mut emu, &cfg, &project, &script, obs, threads)
            .map_err(|f| f.to_string())?;
        Ok((report, real.stack_high_water()))
    }

    /// Verify one full (app × cpu × opt) cell: every stage plus the
    /// composed end-to-end certificate.
    pub fn verify_cell(
        &self,
        app: &AppPipeline,
        cpu: Cpu,
        opt: OptLevel,
        obs: &FpsObserver,
        threads: usize,
    ) -> Result<CellReport, String> {
        self.verify_stages(app, cpu, opt, StageSet::all(), obs, threads)
    }

    /// Verify `stages` of one cell (plus the stages they read), one
    /// node at a time in the stage graph's order, composing their
    /// certificates. `threads` is the FPS segment-worker budget.
    pub fn verify_stages(
        &self,
        app: &AppPipeline,
        cpu: Cpu,
        opt: OptLevel,
        stages: StageSet,
        obs: &FpsObserver,
        threads: usize,
    ) -> Result<CellReport, String> {
        let cell = Cell { pipeline: self, app, cpu, opt, stages, obs: obs.clone(), threads };
        run_cells(1, std::slice::from_ref(&cell)).pop().expect("one result per cell")
    }

    /// Verify an app across a platform matrix, fanning the independent
    /// cells out over the thread budget (each cell then splits its
    /// share across FPS segment workers). Each cell runs its own
    /// graph; the cache's single-flight makes the stages they share
    /// run once.
    pub fn verify_matrix(
        &self,
        app: &AppPipeline,
        cpus: &[Cpu],
        opt: OptLevel,
        obs: &FpsObserver,
        threads: usize,
    ) -> Vec<(Cpu, Result<CellReport, String>)> {
        let cases = cpus.len().max(1);
        let threads_per_case = (threads / cases).max(1);
        parallel_map(cases.min(threads.max(1)), cpus.to_vec(), move |_, cpu| {
            (cpu, self.verify_cell(app, cpu, opt, obs, threads_per_case))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_case_grid_is_deterministic_and_covers_both_states() {
        let app = crate::apps::StdApp::Hasher.pipeline();
        let a = Pipeline::equivalence_cases(&app);
        let b = Pipeline::equivalence_cases(&app);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().any(|(s, _)| *s == app.secret_state));
        assert!(a.iter().any(|(s, _)| *s == app.dummy_state));
    }

    #[test]
    fn stage_input_hashes_differ_across_stages_and_cells() {
        // Build hashes by hand the way the stages do and check the
        // obvious separations hold.
        let h1 = ArtifactHasher::new("stage:fps").field_str("cpu", "Ibex").finish();
        let h2 = ArtifactHasher::new("stage:fps").field_str("cpu", "PicoRV32").finish();
        let h3 = ArtifactHasher::new("stage:lockstep").field_str("cpu", "Ibex").finish();
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn contract_edit_changes_exactly_the_dependent_stage_keys() {
        // A contract re-declaration (revision bump, no clause change)
        // must rotate the contract-check and FPS cache keys — both
        // consume the canonical text — while the software stages,
        // which never see the contract, are structurally unaffected
        // (their input derivations take no contract parameter; see
        // `speccheck_stage`/`lockstep_stage`/`equivalence_stage`).
        let app = crate::apps::StdApp::Hasher.pipeline();
        let exported = Pipeline::core_contract(Cpu::Ibex);
        let mut edited = exported.clone();
        edited.revision += 1;

        let timeout = FpsConfig::default_timeout();
        assert_ne!(
            Pipeline::contract_inputs(&app, Cpu::Ibex, exported),
            Pipeline::contract_inputs(&app, Cpu::Ibex, &edited),
        );
        assert_ne!(
            Pipeline::fps_inputs(&app, Cpu::Ibex, OptLevel::O2, timeout, exported),
            Pipeline::fps_inputs(&app, Cpu::Ibex, OptLevel::O2, timeout, &edited),
        );
        // The ctcheck key folds the union latency model, which names
        // every supported contract — an Ibex edit re-lints.
        assert!(parfait_analyzer::latency_model_fingerprint().contains(&exported.canonical()));
        // A clause edit (not just a revision bump) also rotates keys.
        let mut clause_edit = exported.clone();
        clause_edit.clauses[parfait_cores::InstrClass::Load.index()].latency =
            parfait_cores::Latency::Fixed(3);
        assert_ne!(
            Pipeline::contract_inputs(&app, Cpu::Ibex, exported),
            Pipeline::contract_inputs(&app, Cpu::Ibex, &clause_edit),
        );
    }
}
