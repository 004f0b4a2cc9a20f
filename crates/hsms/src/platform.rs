//! Hardware platforms: the Ibex-like and PicoRV32-like SoCs, and the
//! firmware build pipeline.
//!
//! A platform build compiles the application's littlec sources together
//! with the generated system software, prepends the boot shim, assembles
//! the result at the SoC memory map, and packages it as a ROM image —
//! the paper's "linked binary … embedded in the hardware's ROM" (§2).

use parfait_cores::{IbexCore, PicoCore};
use parfait_littlec::codegen::{compile, OptLevel};
use parfait_littlec::frontend;
use parfait_littlec::LcError;
use parfait_riscv::asm::{assemble_with, Layout};
use parfait_soc::{Firmware, Soc, FRAM_BASE, RAM_BASE, ROM_BASE};

use crate::syssw;

/// Which CPU the platform uses (paper §7.1: hardware platforms 1 and 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cpu {
    /// The 2-stage pipelined Ibex-like core.
    Ibex,
    /// The size-optimized multi-cycle PicoRV32-like core.
    Pico,
}

impl std::fmt::Display for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cpu::Ibex => f.write_str("Ibex"),
            Cpu::Pico => f.write_str("PicoRV32"),
        }
    }
}

/// An application's buffer sizes (fig. 1's STATE/COMMAND/RESPONSE_SIZE).
#[derive(Clone, Copy, Debug)]
pub struct AppSizes {
    /// Encoded state size.
    pub state: usize,
    /// Encoded command size.
    pub command: usize,
    /// Encoded response size.
    pub response: usize,
}

/// Build the firmware image for an application.
///
/// `app_source` provides `handle` plus everything it calls; the system
/// software and boot shim are appended/prepended here.
pub fn build_firmware(
    app_source: &str,
    sizes: AppSizes,
    opt: OptLevel,
) -> Result<Firmware, LcError> {
    let syssw_src = syssw::syssw_source(sizes.state, sizes.command, sizes.response);
    build_firmware_parts(app_source, &syssw_src, opt, |asm| asm)
}

/// Build firmware from explicit parts, with a hook to transform the
/// generated assembly before it is linked.
///
/// The hook models post-compiler tampering: the fault-injection suite
/// uses it to plant "compiler-introduced" timing bugs (§7.2) below the
/// littlec source level, and custom `syssw_src` values plant system
/// software bugs.
pub fn build_firmware_parts(
    app_source: &str,
    syssw_src: &str,
    opt: OptLevel,
    patch_asm: impl FnOnce(String) -> String,
) -> Result<Firmware, LcError> {
    firmware_from_asm(&link_asm(app_source, syssw_src, opt, patch_asm)?)
}

/// The linked whole-firmware text [`build_firmware_parts`] assembles:
/// the app and system software compiled together at `opt`, the hook
/// applied, the boot shim prepended.
pub fn link_asm(
    app_source: &str,
    syssw_src: &str,
    opt: OptLevel,
    patch_asm: impl FnOnce(String) -> String,
) -> Result<String, LcError> {
    let mut source = String::from(app_source);
    source.push_str(syssw_src);
    let program = frontend(&source)?;
    let compiled = patch_asm(compile(&program, opt)?);
    let mut asm = String::from(syssw::BOOT_ASM);
    asm.push_str(&compiled);
    Ok(asm)
}

/// Assemble linked firmware text ([`link_asm`]) at the SoC memory map
/// into a ROM image.
pub fn firmware_from_asm(asm: &str) -> Result<Firmware, LcError> {
    let prog = assemble_with(asm, Layout { text_base: ROM_BASE, data_base: RAM_BASE })
        .map_err(|e| LcError::new(e.line, format!("firmware assembly failed: {}", e.msg)))?;
    Ok(Firmware::from_program(&prog))
}

/// Instantiate an SoC for `cpu` with the given firmware and encoded
/// initial HSM state.
///
/// The FRAM is loaded with the journaled image (both slots = initial
/// state, flag = 0); the state slots are tainted as secrets, while the
/// journal flag word — public metadata — is untainted.
pub fn make_soc(cpu: Cpu, firmware: Firmware, initial_state: &[u8]) -> Soc {
    make_soc_with(cpu, firmware, initial_state, None)
}

/// [`make_soc`] with an optional deliberately seeded core fault
/// ([`parfait_cores::SeededFault`]). Production callers pass `None`;
/// the `parfait-adversary` mutation harness (DESIGN.md §12) seeds
/// micro-architectural bugs here to prove the FPS check rejects them.
pub fn make_soc_with(
    cpu: Cpu,
    firmware: Firmware,
    initial_state: &[u8],
    fault: Option<parfait_cores::SeededFault>,
) -> Soc {
    let fram = syssw::initial_fram(initial_state);
    let core: Box<dyn parfait_cores::Core> = match cpu {
        Cpu::Ibex => Box::new(IbexCore::with_fault(ROM_BASE, fault)),
        Cpu::Pico => Box::new(PicoCore::with_fault(ROM_BASE, fault)),
    };
    let mut soc = Soc::new(core, firmware, &fram);
    // The journal flag is public.
    soc.fram.set_taint(syssw::FLAG_OFFSET, 4, false);
    soc
}

/// Convenience: the FRAM base-relative address of the journal flag.
pub const FLAG_ADDR: u32 = FRAM_BASE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher;
    use parfait::lockstep::Codec;
    use parfait::StateMachine;
    use parfait_rtl::Circuit;
    use parfait_soc::host;

    fn hasher_sizes() -> AppSizes {
        AppSizes {
            state: hasher::STATE_SIZE,
            command: hasher::COMMAND_SIZE,
            response: hasher::RESPONSE_SIZE,
        }
    }

    fn run_command(soc: &mut Soc, cmd: &[u8], resp_len: usize) -> Vec<u8> {
        host::send_bytes(soc, cmd, 2_000_000).unwrap();
        let r = host::recv_bytes(soc, resp_len, 20_000_000).unwrap();
        assert!(soc.fault().is_none(), "{:?}", soc.fault());
        r
    }

    #[test]
    fn hasher_on_ibex_soc_end_to_end() {
        let fw =
            build_firmware(&crate::firmware::hasher_app_source(), hasher_sizes(), OptLevel::O2)
                .unwrap();
        let spec = hasher::HasherSpec;
        let codec = hasher::HasherCodec;
        let st0 = spec.init();
        let mut soc = make_soc(Cpu::Ibex, fw, &codec.encode_state(&st0));

        // Initialize.
        let cmd = hasher::HasherCommand::Initialize { secret: [0xAB; 32] };
        let (st1, want) = spec.step(&st0, &cmd);
        let resp = run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);
        assert_eq!(resp, codec.encode_response(Some(&want)));

        // Hash.
        let cmd = hasher::HasherCommand::Hash { message: [0x42; 32] };
        let (_, want) = spec.step(&st1, &cmd);
        let resp = run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);
        assert_eq!(resp, codec.encode_response(Some(&want)));

        // Invalid command.
        let bad = vec![9u8; hasher::COMMAND_SIZE];
        let resp = run_command(&mut soc, &bad, hasher::RESPONSE_SIZE);
        assert_eq!(resp, codec.encode_response(None));
    }

    #[test]
    fn hasher_on_pico_soc_end_to_end() {
        let fw =
            build_firmware(&crate::firmware::hasher_app_source(), hasher_sizes(), OptLevel::O2)
                .unwrap();
        let spec = hasher::HasherSpec;
        let codec = hasher::HasherCodec;
        let st0 = spec.init();
        let mut soc = make_soc(Cpu::Pico, fw, &codec.encode_state(&st0));
        let cmd = hasher::HasherCommand::Initialize { secret: [0x11; 32] };
        let (st1, want) = spec.step(&st0, &cmd);
        let resp = run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);
        assert_eq!(resp, codec.encode_response(Some(&want)));
        let cmd = hasher::HasherCommand::Hash { message: [0x99; 32] };
        let (_, want) = spec.step(&st1, &cmd);
        let resp = run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);
        assert_eq!(resp, codec.encode_response(Some(&want)));
    }

    #[test]
    fn state_persists_in_fram_across_power_cycles() {
        let fw =
            build_firmware(&crate::firmware::hasher_app_source(), hasher_sizes(), OptLevel::O2)
                .unwrap();
        let spec = hasher::HasherSpec;
        let codec = hasher::HasherCodec;
        let st0 = spec.init();
        let mut soc = make_soc(Cpu::Ibex, fw, &codec.encode_state(&st0));
        let cmd = hasher::HasherCommand::Initialize { secret: [0x77; 32] };
        let (st1, _) = spec.step(&st0, &cmd);
        run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);

        // Power-cycle the device; the secret must survive.
        soc.power_cycle();
        let cmd = hasher::HasherCommand::Hash { message: [0x10; 32] };
        let (_, want) = spec.step(&st1, &cmd);
        let resp = run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);
        assert_eq!(resp, codec.encode_response(Some(&want)));
    }

    #[test]
    fn journal_flag_toggles_per_command() {
        let fw =
            build_firmware(&crate::firmware::hasher_app_source(), hasher_sizes(), OptLevel::O1)
                .unwrap();
        let codec = hasher::HasherCodec;
        let spec = hasher::HasherSpec;
        let mut soc = make_soc(Cpu::Ibex, fw, &codec.encode_state(&spec.init()));
        assert_eq!(soc.fram_bytes(0, 4), vec![0, 0, 0, 0]);
        let cmd = hasher::HasherCommand::Initialize { secret: [1; 32] };
        run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);
        assert_eq!(soc.fram_bytes(0, 4), vec![1, 0, 0, 0]);
        run_command(&mut soc, &codec.encode_command(&cmd), hasher::RESPONSE_SIZE);
        assert_eq!(soc.fram_bytes(0, 4), vec![0, 0, 0, 0]);
        // The active state tracks the journal (fig. 9).
        let active = crate::syssw::active_state(&soc.fram_bytes(0, 80), hasher::STATE_SIZE);
        assert_eq!(active, codec.encode_state(&hasher::HasherState { secret: [1; 32] }));
    }

    #[test]
    fn idle_device_stays_quiet() {
        let fw =
            build_firmware(&crate::firmware::hasher_app_source(), hasher_sizes(), OptLevel::O2)
                .unwrap();
        let codec = hasher::HasherCodec;
        let spec = hasher::HasherSpec;
        let mut soc = make_soc(Cpu::Ibex, fw, &codec.encode_state(&spec.init()));
        host::idle(&mut soc, 10_000);
        let out = soc.get_output();
        assert!(!out.tx_valid, "no spontaneous output");
        assert!(soc.fault().is_none());
    }
}
