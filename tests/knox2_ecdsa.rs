//! Knox2 functional-physical simulation for the ECDSA-signing HSM — the
//! paper's headline verification (a Sign command takes hundreds of
//! millions of SoC cycles; the check runs the real circuit and the
//! emulator's dummy-state circuit in lockstep for every one of them and
//! demands cycle-exact wire equality).

use parfait::lockstep::Codec;
use parfait::StateMachine;
use parfait_hsms::ecdsa::{
    EcdsaCodec, EcdsaCommand, EcdsaSpec, EcdsaState, COMMAND_SIZE, RESPONSE_SIZE, STATE_SIZE,
};
use parfait_hsms::firmware::ecdsa_app_source;
use parfait_hsms::platform::{build_firmware, make_soc, AppSizes, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::{check_fps, CircuitEmulator, FpsConfig, HostOp};
use parfait_littlec::codegen::OptLevel;
use parfait_littlec::validate::asm_machine;
use parfait_soc::Soc;
use parfait_telemetry::metrics::Metrics;

fn project(soc: &Soc) -> Vec<u8> {
    syssw::active_state(&soc.fram_bytes(0, 256), STATE_SIZE)
}

#[test]
fn ecdsa_fps_passes_on_ibex() {
    let sizes = AppSizes { state: STATE_SIZE, command: COMMAND_SIZE, response: RESPONSE_SIZE };
    let fw = build_firmware(&ecdsa_app_source(), sizes, OptLevel::O2).unwrap();
    let program = parfait_littlec::frontend(&ecdsa_app_source()).unwrap();
    let spec =
        asm_machine(&program, OptLevel::O2, STATE_SIZE, COMMAND_SIZE, RESPONSE_SIZE).unwrap();
    let codec = EcdsaCodec;
    // The device ships provisioned with secret keys; the adversary
    // drives Initialize and Sign over the wire.
    let secret = codec.encode_state(&EcdsaState {
        prf_key: [0x51; 32],
        prf_counter: 0,
        sig_key: [0x2D; 32],
    });
    let mut real = make_soc(Cpu::Ibex, fw.clone(), &secret);
    let dummy = codec.encode_state(&EcdsaSpec.init());
    let dummy_soc = make_soc(Cpu::Ibex, fw, &dummy);
    let mut emu = CircuitEmulator::new(dummy_soc, &spec, secret.clone(), COMMAND_SIZE);
    let cfg = FpsConfig {
        command_size: COMMAND_SIZE,
        response_size: RESPONSE_SIZE,
        timeout: 2_000_000_000,
        state_size: STATE_SIZE,
    };
    let script = vec![
        // Sign with the provisioned key: the emulator's circuit computes
        // a garbage signature on dummy keys in exactly the same number
        // of cycles, then the real signature is injected at the commit
        // point. Any state-dependent timing would diverge here.
        HostOp::Command(codec.encode_command(&EcdsaCommand::Sign { msg: [0x3C; 32] })),
        // An invalid command between operations.
        HostOp::Command(vec![0xEE; COMMAND_SIZE]),
    ];
    // This binary's one test, so the process-wide counter sees this run
    // alone.
    let splits = || Metrics::global().snapshot().counter_total("fps_world_splits_total");
    let splits_before = splits();
    let report =
        check_fps(&mut real, &mut emu, &cfg, &project, &script).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        splits() - splits_before,
        0,
        "constant-time signing never leaves the product world (DESIGN.md §8)"
    );
    assert!(
        report.cycles > 100_000_000,
        "a Sign takes hundreds of millions of cycles, got {}",
        report.cycles
    );
    assert_eq!(report.commands, 2);
    eprintln!(
        "ECDSA FPS: {} cycles in {:?} ({:.0} cycles/s)",
        report.cycles,
        report.wall,
        report.cycles_per_second()
    );
}
