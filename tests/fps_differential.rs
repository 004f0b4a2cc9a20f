//! The FPS product world against the dual loop it falls back to.
//!
//! `check_fps_traced` steps the real and ideal worlds as one SoC over
//! paired data while their control agrees, and splits them into two
//! SoCs at the first cycle it would not (DESIGN.md §8);
//! `check_fps_dual_traced` steps them apart from cycle 0. On every case
//! here both must give the same result (error text, cycle, op index,
//! both pcs), the same report apart from the wall clock, and leave both
//! worlds in the same state: registers and memories with taint, FIFOs
//! and their high-water marks, core counters, leak events, the stack
//! watermark, and the emulator's spec state, queries and responses.
//! The cases cover passing runs (which must never split), the mutants
//! that die at FPS, buggy hashers, and hand-written firmware whose
//! control reads a secret (which must split, at that instruction).

use std::sync::{Arc, Mutex};

use parfait::lockstep::Codec;
use parfait::StateMachine;
use parfait_adversary::catalog;
use parfait_cores::LeakEvent;
use parfait_hsms::hasher::{
    HasherCodec, HasherCommand, HasherSpec, HasherState, COMMAND_SIZE, RESPONSE_SIZE, STATE_SIZE,
};
use parfait_hsms::platform::{build_firmware, make_soc, AppSizes, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::script::ScriptRng;
use parfait_knox2::{
    check_fps_dual_traced, check_fps_traced, CircuitEmulator, FpsConfig, FpsError, FpsFailure,
    FpsObserver, FpsReport, HostOp,
};
use parfait_littlec::codegen::OptLevel;
use parfait_littlec::validate::asm_machine;
use parfait_pipeline::{CertCache, Pipeline};
use parfait_riscv::model::AsmStateMachine;
use parfait_rtl::{WireOut, W};
use parfait_soc::Soc;
use parfait_telemetry::{Event, Recorder, Telemetry};

mod common;

type Check = fn(
    &mut Soc,
    &mut CircuitEmulator<'_>,
    &FpsConfig,
    &dyn Fn(&Soc) -> Vec<u8>,
    &[HostOp],
    &FpsObserver,
) -> Result<FpsReport, FpsFailure>;

/// The `fps.split` events of a run: (cycle, op index, pc).
#[derive(Clone, Default)]
struct Splits(Arc<Mutex<Vec<(u64, usize, u32)>>>);

impl Recorder for Splits {
    fn record(&mut self, event: &Event<'_>) {
        if let Event::Progress { name: "fps.split", fields, .. } = event {
            let get = |k| fields.iter().find(|(n, _)| *n == k).map_or(f64::NAN, |&(_, v)| v);
            let split = (get("cycle") as u64, get("op_index") as usize, get("pc") as u32);
            self.0.lock().unwrap().push(split);
        }
    }
}

/// One world's end state.
#[derive(Debug, PartialEq)]
struct WorldEnd {
    regs: Vec<W>,
    ram: Vec<W>,
    fram: Vec<W>,
    fifos: [(Vec<W>, usize); 2],
    pc: u32,
    core_cycles: u64,
    retired: u64,
    in_decode: Option<(u32, u32)>,
    last_retired: Option<(u32, u32)>,
    fault: Option<String>,
    leaks: Vec<LeakEvent>,
    cycles: u64,
    instructions_retired: u64,
    retired_pc: Option<u32>,
    journal_writes: u64,
    stack_high_water: Option<u32>,
    wires: WireOut,
}

fn world_end(soc: &Soc) -> WorldEnd {
    use parfait_rtl::Circuit;
    WorldEnd {
        regs: soc.core.regs().to_vec(),
        ram: soc.ram.lane(0).to_vec(),
        fram: soc.fram.lane(0).to_vec(),
        fifos: [
            (soc.rx_fifo.iter().collect(), soc.rx_fifo.high_water()),
            (soc.tx_fifo.iter().collect(), soc.tx_fifo.high_water()),
        ],
        pc: soc.core.pc(),
        core_cycles: soc.core.cycles(),
        retired: soc.core.retired(),
        in_decode: soc.core.instr_in_decode(),
        last_retired: soc.core.last_retired(),
        fault: soc.fault(),
        leaks: soc.core.leaks().to_vec(),
        cycles: soc.cycles(),
        instructions_retired: soc.instructions_retired(),
        retired_pc: soc.retired_pc(),
        journal_writes: soc.journal_writes(),
        stack_high_water: soc.stack_high_water(),
        wires: soc.get_output(),
    }
}

/// Everything a run leaves that both paths must agree on.
#[derive(Debug, PartialEq)]
struct RunEnd {
    /// Cycles, commands and spec queries of the (partial) report, and
    /// the error with its text on failure.
    report: (u64, usize, u64),
    error: Option<(FpsError, String)>,
    real: WorldEnd,
    ideal: WorldEnd,
    spec_state: Vec<u8>,
    queries: u64,
    spec_responses: Vec<Vec<u8>>,
}

/// Run `check` on the given worlds; return what it left and its splits.
fn run(
    check: Check,
    real: &mut Soc,
    emu: &mut CircuitEmulator<'_>,
    cfg: &FpsConfig,
    project: &dyn Fn(&Soc) -> Vec<u8>,
    script: &[HostOp],
) -> (RunEnd, Vec<(u64, usize, u32)>) {
    let splits = Splits::default();
    let tel = Telemetry::new(Box::new(splits.clone()));
    let obs = FpsObserver { telemetry: tel.clone(), heartbeat_cycles: 0, cell: 0 };
    let result = check(real, emu, cfg, project, script, &obs);
    tel.finish();
    let (report, error) = match result {
        Ok(r) => (r, None),
        Err(f) => (f.partial, Some((f.error.clone(), f.error.to_string()))),
    };
    let end = RunEnd {
        report: (report.cycles, report.commands, report.spec_queries),
        error,
        real: world_end(real),
        ideal: world_end(&emu.soc),
        spec_state: emu.spec_state.clone(),
        queries: emu.queries,
        spec_responses: emu.spec_responses.clone(),
    };
    let splits = splits.0.lock().unwrap().clone();
    (end, splits)
}

/// Run the product path and the dual oracle on two fresh builds of the
/// same worlds, require identical ends, and return the product path's
/// end and splits.
fn differential<'s>(
    label: &str,
    mut worlds: impl FnMut() -> (Soc, CircuitEmulator<'s>),
    cfg: &FpsConfig,
    project: &dyn Fn(&Soc) -> Vec<u8>,
    script: &[HostOp],
) -> (RunEnd, Vec<(u64, usize, u32)>) {
    let (mut real, mut emu) = worlds();
    let (product, splits) = run(check_fps_traced, &mut real, &mut emu, cfg, project, script);
    let (mut real, mut emu) = worlds();
    let (dual, dual_splits) = run(check_fps_dual_traced, &mut real, &mut emu, cfg, project, script);
    assert!(dual_splits.is_empty(), "{label}: the oracle never zips, so never splits");
    assert_eq!(product, dual, "{label}: the product path and the dual oracle differ");
    (product, splits)
}

fn hasher_cfg(timeout: u64) -> FpsConfig {
    FpsConfig {
        command_size: COMMAND_SIZE,
        response_size: RESPONSE_SIZE,
        timeout,
        state_size: STATE_SIZE,
    }
}

fn hasher_project(soc: &Soc) -> Vec<u8> {
    syssw::active_state(&soc.fram_bytes(0, 256), STATE_SIZE)
}

/// Hasher worlds on `cpu` from firmware `fw`, against `spec`.
fn hasher_worlds<'s>(
    cpu: Cpu,
    fw: &parfait_soc::Firmware,
    spec: &'s AsmStateMachine,
    secret: &[u8],
) -> (Soc, CircuitEmulator<'s>) {
    let real = make_soc(cpu, fw.clone(), secret);
    let dummy = make_soc(cpu, fw.clone(), &HasherCodec.encode_state(&HasherSpec.init()));
    (real, CircuitEmulator::new(dummy, spec, secret.to_vec(), COMMAND_SIZE))
}

/// A `fps_fuzz`-shaped script: full-size commands with arbitrary bytes,
/// partial garbage, and idle gaps, drawn from `rng`.
fn fuzz_script(rng: &mut ScriptRng) -> Vec<HostOp> {
    let mut bytes = |n: usize| (0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
    let mut ops = Vec::new();
    let n = 1 + (bytes(1)[0] % 5) as usize;
    for _ in 0..n {
        let pick = bytes(2);
        ops.push(match pick[0] % 3 {
            0 => HostOp::Command(bytes(COMMAND_SIZE)),
            1 => HostOp::Garbage(bytes(1 + pick[1] as usize % (COMMAND_SIZE - 1))),
            _ => HostOp::Idle(1 + pick[1] as u64 * 3 / 2),
        });
    }
    ops
}

#[test]
fn seeded_fuzz_scripts_never_split_and_match_the_oracle() {
    let (fw, spec) = (common::hasher_fw(), common::hasher_asm_spec());
    for cpu in [Cpu::Ibex, Cpu::Pico] {
        for seed in 1..=4u64 {
            let mut rng = ScriptRng::new(seed);
            let mut secret = [0u8; 32];
            secret.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
            let secret = HasherCodec.encode_state(&HasherState { secret });
            let script = fuzz_script(&mut rng);
            let label = format!("{cpu} seed {seed}");
            let (end, splits) = differential(
                &label,
                || hasher_worlds(cpu, &fw, &spec, &secret),
                &hasher_cfg(20_000_000),
                &hasher_project,
                &script,
            );
            assert_eq!(end.error, None, "{label}: random scripts cannot distinguish the worlds");
            assert_eq!(splits, vec![], "{label}: a passing run never leaves the product world");
        }
    }
}

#[test]
fn fps_killed_mutants_match_the_oracle() {
    const FPS_KILLS: [&str; 6] = [
        "cc-syssw-reg-clobber",
        "emu-response-desync",
        "isa-load-sign-extend",
        "isa-store-operand-swap",
        "soc-journal-write-drop",
        "soc-tx-double-commit",
    ];
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    let mutants: Vec<_> = catalog().into_iter().filter(|m| FPS_KILLS.contains(&m.class)).collect();
    assert_eq!(mutants.len(), FPS_KILLS.len(), "every FPS-killed class is in the catalog");
    for m in mutants {
        let app = (m.build)();
        let bound = pipeline.bound_stage(&app, m.cpu, m.opt).expect("FPS-killed mutants bound");
        let wcet = bound.certificate.stat("wcet_cycles").expect("a certified WCET") as u64;
        let timeout = FpsConfig::timeout_from_wcet(wcet);
        let ends: Vec<(RunEnd, Vec<_>)> = [check_fps_traced as Check, check_fps_dual_traced]
            .into_iter()
            .map(|check| {
                pipeline
                    .with_fps_worlds(&app, m.cpu, m.opt, timeout, |w| {
                        run(check, &mut w.real, &mut w.emu, &w.cfg, w.project, w.script)
                    })
                    .unwrap_or_else(|e| panic!("{}: {e}", m.class))
            })
            .collect();
        let [(product, _), (dual, _)] = <[_; 2]>::try_from(ends).ok().unwrap();
        assert!(product.error.is_some(), "{} dies at FPS", m.class);
        assert_eq!(product, dual, "{}: the product path and the dual oracle differ", m.class);
    }
}

#[test]
fn buggy_hashers_match_the_oracle() {
    let sizes = AppSizes { state: STATE_SIZE, command: COMMAND_SIZE, response: RESPONSE_SIZE };
    let hash = |m| HostOp::Command(HasherCodec.encode_command(&HasherCommand::Hash { message: m }));
    let secret = HasherCodec.encode_state(&HasherState { secret: [0xAA; 32] });

    // A branch on the secret: the worlds' control disagrees, so the
    // product splits — inside handle, at the first command.
    let source = common::secret_branch_hasher_source();
    let fw = build_firmware(&source, sizes, OptLevel::O2).unwrap();
    let program = parfait_littlec::frontend(&source).unwrap();
    let spec =
        asm_machine(&program, OptLevel::O2, STATE_SIZE, COMMAND_SIZE, RESPONSE_SIZE).unwrap();
    let (end, splits) = differential(
        "secret branch",
        || hasher_worlds(Cpu::Ibex, &fw, &spec, &secret),
        &hasher_cfg(50_000_000),
        &hasher_project,
        &[hash([1; 32])],
    );
    assert!(end.error.is_some(), "the secret branch is caught");
    assert_eq!(splits.len(), 1, "the run splits once: {splits:?}");
    let handle = fw.address_of("handle").unwrap();
    assert!(splits[0].2 >= handle, "it splits in handle, not before: {splits:?}");

    // A state-corrupting handle: only data goes wrong.
    let fw =
        build_firmware(&common::state_corrupting_hasher_source(), sizes, OptLevel::O2).unwrap();
    let spec = common::hasher_asm_spec();
    let secret = HasherCodec.encode_state(&HasherState { secret: [3; 32] });
    let (end, _) = differential(
        "state corruption",
        || hasher_worlds(Cpu::Ibex, &fw, &spec, &secret),
        &hasher_cfg(50_000_000),
        &hasher_project,
        &[hash([2; 32]), hash([2; 32])],
    );
    assert!(end.error.is_some(), "the corrupted state is caught");
}

/// Token firmware whose `handle` starts with `prologue`: instructions
/// that load the secret's first word (which differs between the
/// worlds) and feed it to one kind of control.
fn token_with_prologue(prologue: &str) -> common::TokenFps {
    common::TokenFps::build(common::TOKEN_LC, None, None, |asm| {
        let patched = asm.replacen("\nhandle:\n", &format!("\nhandle:\n{prologue}"), 1);
        assert_ne!(patched, asm, "the prologue lands after handle's label");
        patched
    })
}

#[test]
fn secret_control_splits_at_its_instruction_and_matches_the_oracle() {
    // (case, core, prologue, index of the instruction whose control
    // reads the secret, or None when this core's control never does).
    let cases = [
        (
            "secret branch",
            Cpu::Ibex,
            "    lw t6, 0(a0)\n    andi t6, t6, 4\n    beqz t6, .Lsplit_over\n    nop\n\
             .Lsplit_over:\n",
            Some(2),
        ),
        (
            "secret load address",
            Cpu::Ibex,
            "    lw t6, 0(a0)\n    andi t6, t6, 4\n    add t6, t6, a0\n    lw t6, 0(t6)\n",
            Some(3),
        ),
        (
            "secret jump target",
            Cpu::Ibex,
            "    lw t6, 0(a0)\n    andi t6, t6, 4\n    auipc t5, 0\n    add t5, t5, t6\n\
             \x20   jalr zero, 16(t5)\n    nop\n    nop\n    nop\n",
            Some(4),
        ),
        ("secret Ibex dividend", Cpu::Ibex, "    lw t6, 0(a0)\n    divu t6, t6, t6\n", Some(1)),
        ("secret PicoRV32 shift", Cpu::Pico, "    lw t6, 0(a0)\n    sll t5, t5, t6\n", Some(1)),
        // Ibex's barrel shifter is fixed-latency: the same secret shift
        // amount decides nothing there.
        ("secret Ibex shift", Cpu::Ibex, "    lw t6, 0(a0)\n    sll t5, t5, t6\n", None),
    ];
    let script = common::standard_script();
    for (label, cpu, prologue, at) in cases {
        let token = token_with_prologue(prologue);
        let (_, splits) =
            differential(label, || token.worlds_on(cpu), &common::cfg(), &common::project, &script);
        let handle = token.fw.address_of("handle").unwrap();
        let want: Vec<u32> = at.into_iter().map(|i| handle + 4 * i).collect();
        let got: Vec<u32> = splits.iter().map(|s| s.2).collect();
        assert_eq!(got, want, "{label}: where the product world splits");
    }
}
