//! Knox2 functional-physical simulation for the password-hashing HSM —
//! the full §5 verification flow on both hardware platforms.

use parfait::lockstep::Codec;
use parfait::StateMachine;
use parfait_hsms::hasher::{
    HasherCodec, HasherCommand, HasherSpec, COMMAND_SIZE, RESPONSE_SIZE, STATE_SIZE,
};
use parfait_hsms::platform::{build_firmware, make_soc, AppSizes, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::{check_fps, CircuitEmulator, FpsConfig, FpsError, HostOp};
use parfait_littlec::codegen::OptLevel;
use parfait_littlec::validate::asm_machine;
use parfait_riscv::model::AsmStateMachine;
use parfait_soc::Soc;

mod common;

fn sizes() -> AppSizes {
    AppSizes { state: STATE_SIZE, command: COMMAND_SIZE, response: RESPONSE_SIZE }
}

fn cfg() -> FpsConfig {
    FpsConfig {
        command_size: COMMAND_SIZE,
        response_size: RESPONSE_SIZE,
        timeout: 50_000_000,
        state_size: STATE_SIZE,
    }
}

/// The assembly-level whole-command spec for the hasher app (shared
/// per-binary cache; see tests/common).
fn hasher_asm_spec() -> AsmStateMachine {
    common::hasher_asm_spec()
}

/// Build (real SoC with secret state, emulator with dummy state).
fn worlds<'s>(
    cpu: Cpu,
    spec: &'s AsmStateMachine,
    secret_state: &[u8],
) -> (Soc, CircuitEmulator<'s>) {
    let fw = common::hasher_fw();
    let real = make_soc(cpu, fw.clone(), secret_state);
    // The emulator's circuit runs on PUBLIC dummy state (the app's
    // well-known initial state); it never sees `secret_state`.
    let codec = HasherCodec;
    let dummy = codec.encode_state(&HasherSpec.init());
    let dummy_soc = make_soc(cpu, fw, &dummy);
    let emu = CircuitEmulator::new(dummy_soc, spec, secret_state.to_vec(), COMMAND_SIZE);
    (real, emu)
}

fn project(soc: &Soc) -> Vec<u8> {
    syssw::active_state(&soc.fram_bytes(0, 256), STATE_SIZE)
}

fn script() -> Vec<HostOp> {
    let codec = HasherCodec;
    vec![
        // Hash with the pre-provisioned secret (the adversary learns the
        // digest — allowed — but nothing else).
        HostOp::Command(codec.encode_command(&HasherCommand::Hash { message: [0x42; 32] })),
        HostOp::Idle(500),
        // Re-initialize.
        HostOp::Command(codec.encode_command(&HasherCommand::Initialize { secret: [0x5A; 32] })),
        // Invalid full-size command.
        HostOp::Command(vec![0xEE; COMMAND_SIZE]),
        // Adversarial partial command, later completed by garbage.
        HostOp::Garbage(vec![2, 9, 9]),
        HostOp::Garbage(vec![1; COMMAND_SIZE - 3]),
        HostOp::Idle(200),
        HostOp::Command(codec.encode_command(&HasherCommand::Hash { message: [7; 32] })),
    ]
}

#[test]
fn hasher_fps_passes_on_ibex() {
    let spec = hasher_asm_spec();
    let codec = HasherCodec;
    let secret = codec.encode_state(&parfait_hsms::hasher::HasherState { secret: [0xC3; 32] });
    let (mut real, mut emu) = worlds(Cpu::Ibex, &spec, &secret);
    let report = check_fps(&mut real, &mut emu, &cfg(), &project, &script())
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(report.cycles > 10_000, "cycles: {}", report.cycles);
    assert_eq!(report.commands, 4);
    assert!(report.spec_queries >= 5, "queries: {}", report.spec_queries);
}

#[test]
fn hasher_fps_passes_on_pico() {
    let spec = hasher_asm_spec();
    let codec = HasherCodec;
    let secret = codec.encode_state(&parfait_hsms::hasher::HasherState { secret: [0x77; 32] });
    let (mut real, mut emu) = worlds(Cpu::Pico, &spec, &secret);
    let report = check_fps(&mut real, &mut emu, &cfg(), &project, &script())
        .unwrap_or_else(|e| panic!("{e}"));
    // Table 4 shape: the pico takes more cycles for the same work.
    assert!(report.cycles > 10_000);
}

#[test]
fn pico_needs_more_cycles_than_ibex() {
    let spec = hasher_asm_spec();
    let codec = HasherCodec;
    let secret = codec.encode_state(&parfait_hsms::hasher::HasherState { secret: [1; 32] });
    let ops =
        vec![HostOp::Command(codec.encode_command(&HasherCommand::Hash { message: [2; 32] }))];
    let (mut real_i, mut emu_i) = worlds(Cpu::Ibex, &spec, &secret);
    let ri = check_fps(&mut real_i, &mut emu_i, &cfg(), &project, &ops).unwrap();
    let (mut real_p, mut emu_p) = worlds(Cpu::Pico, &spec, &secret);
    let rp = check_fps(&mut real_p, &mut emu_p, &cfg(), &project, &ops).unwrap();
    assert!(rp.cycles > 2 * ri.cycles, "pico {} should need >2x ibex {}", rp.cycles, ri.cycles);
}

#[test]
fn fps_catches_timing_leak_from_secret_branch() {
    // Inject the §7.2 bug: branch on a secret byte in handle, skipping
    // work when it is zero. The emulator's dummy state takes a different
    // path than the real secret state: the wire traces diverge in time.
    let buggy = common::secret_branch_hasher_source();
    let fw = build_firmware(&buggy, sizes(), OptLevel::O2).unwrap();
    let program = parfait_littlec::frontend(&buggy).unwrap();
    let spec =
        asm_machine(&program, OptLevel::O2, STATE_SIZE, COMMAND_SIZE, RESPONSE_SIZE).unwrap();
    let codec = HasherCodec;
    // Real secret: nonzero first byte → takes the slow path.
    let secret = codec.encode_state(&parfait_hsms::hasher::HasherState { secret: [0xAA; 32] });
    let real_soc = make_soc(Cpu::Ibex, fw.clone(), &secret);
    let dummy = codec.encode_state(&HasherSpec.init()); // zero state → fast path
    let dummy_soc = make_soc(Cpu::Ibex, fw, &dummy);
    let mut emu = CircuitEmulator::new(dummy_soc, &spec, secret.clone(), COMMAND_SIZE);
    let mut real = real_soc;
    let ops =
        vec![HostOp::Command(codec.encode_command(&HasherCommand::Hash { message: [1; 32] }))];
    let err = check_fps(&mut real, &mut emu, &cfg(), &project, &ops).unwrap_err();
    match err {
        FpsError::TraceDivergence { .. } | FpsError::Leak { .. } | FpsError::Timeout { .. } => {}
        other => panic!("expected a timing-leak symptom, got {other:?}"),
    }
}

#[test]
fn fps_catches_state_corruption() {
    // Inject a persistence bug: store_state writes to the *active* slot
    // (no journaling), so the refinement relation of fig. 9 breaks...
    // actually the observable state still matches; instead inject a
    // handle bug that corrupts the state on Hash commands.
    let buggy = common::state_corrupting_hasher_source();
    let fw = build_firmware(&buggy, sizes(), OptLevel::O2).unwrap();
    // Spec = the CORRECT app's assembly model.
    let spec = hasher_asm_spec();
    let codec = HasherCodec;
    let secret = codec.encode_state(&parfait_hsms::hasher::HasherState { secret: [3; 32] });
    let mut real = make_soc(Cpu::Ibex, fw.clone(), &secret);
    let dummy = codec.encode_state(&HasherSpec.init());
    let dummy_soc = make_soc(Cpu::Ibex, fw, &dummy);
    let mut emu = CircuitEmulator::new(dummy_soc, &spec, secret.clone(), COMMAND_SIZE);
    let ops = vec![
        HostOp::Command(codec.encode_command(&HasherCommand::Hash { message: [2; 32] })),
        HostOp::Command(codec.encode_command(&HasherCommand::Hash { message: [2; 32] })),
    ];
    let err = check_fps(&mut real, &mut emu, &cfg(), &project, &ops).unwrap_err();
    match err {
        FpsError::RefinementViolation { .. } | FpsError::TraceDivergence { .. } => {}
        other => panic!("expected refinement/trace failure, got {other:?}"),
    }
}

#[test]
fn seeded_adversarial_scripts_pass_on_both_platforms() {
    // The standard script generator (partial frames, invalid commands,
    // idle probing) across several seeds and both CPUs.
    let spec = hasher_asm_spec();
    let codec = HasherCodec;
    let secret = codec.encode_state(&parfait_hsms::hasher::HasherState { secret: [0x5E; 32] });
    let commands = vec![
        codec.encode_command(&HasherCommand::Hash { message: [1; 32] }),
        codec.encode_command(&HasherCommand::Initialize { secret: [2; 32] }),
        codec.encode_command(&HasherCommand::Hash { message: [3; 32] }),
    ];
    for cpu in [Cpu::Ibex, Cpu::Pico] {
        for seed in [1u64, 99, 0xDEAD_BEEF] {
            let script = parfait_knox2::adversarial_script(&commands, COMMAND_SIZE, seed);
            let (mut real, mut emu) = worlds(cpu, &spec, &secret);
            check_fps(&mut real, &mut emu, &cfg(), &project, &script)
                .unwrap_or_else(|e| panic!("{cpu} seed {seed}: {e}"));
        }
    }
}
