//! Differential tests for the pre-decoded instruction cache
//! (`parfait_riscv::predecode`): a SoC running from the shared decode
//! cache must be cycle-for-cycle identical to one decoding live off
//! the bus — same wire outputs, same FPS verdicts and statistics — and
//! SoCs instantiated from the same firmware image must share one cache (the mutation harness builds
//! hundreds of worlds per image; re-decoding the ROM for each would
//! swamp the runs it benchmarks).

mod common;

use std::sync::Arc;

use common::{cfg, cmd, project, standard_script, token_fps, RunOutcome, TokenFps, TOKEN_LC};
use parfait_cores::{Core, IbexCore};
use parfait_hsms::platform::{make_soc, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::{check_fps_traced, CircuitEmulator, FpsObserver, HostOp};
use parfait_riscv::predecode::DecodeCache;
use parfait_rtl::Circuit;
use parfait_soc::{Firmware, Soc, ROM_BASE};

/// A token-HSM SoC with the decode cache explicitly disabled — the
/// live bus-fetch + decode path.
fn make_soc_uncached(fw: Firmware, initial_state: &[u8]) -> Soc {
    let fram = syssw::initial_fram(initial_state);
    let core: Box<dyn Core> = Box::new(IbexCore::with_fault(ROM_BASE, None));
    let mut soc = Soc::new_with_decode_cache(core, fw, &fram, None);
    soc.fram.set_taint(syssw::FLAG_OFFSET, 4, false);
    soc
}

/// One FPS run over explicitly cached or uncached worlds (both the
/// real SoC and the emulator's dummy SoC use the same mode).
fn run_fps(fps: &TokenFps, cached: bool, script: &[HostOp]) -> RunOutcome {
    let (mut real, dummy) = if cached {
        (
            make_soc(Cpu::Ibex, fps.fw.clone(), &fps.secret_state),
            make_soc(Cpu::Ibex, fps.fw.clone(), &fps.dummy_state),
        )
    } else {
        (
            make_soc_uncached(fps.fw.clone(), &fps.secret_state),
            make_soc_uncached(fps.fw.clone(), &fps.dummy_state),
        )
    };
    let mut emu = CircuitEmulator::new(dummy, &fps.spec, fps.secret_state.clone(), common::CMD);
    let obs = FpsObserver::default();
    let result = check_fps_traced(&mut real, &mut emu, &cfg(), &project, script, &obs);
    RunOutcome {
        result,
        final_state: project(&real),
        spec_state: emu.spec_state.clone(),
        spec_responses: emu.spec_responses.clone(),
    }
}

/// The cached and uncached worlds must agree on everything except
/// wall-clock timing.
fn assert_identical(cached: &RunOutcome, fresh: &RunOutcome, label: &str) {
    let a = cached.result.as_ref().unwrap_or_else(|e| panic!("{label}: cached failed: {e}"));
    let b = fresh.result.as_ref().unwrap_or_else(|e| panic!("{label}: uncached failed: {e}"));
    assert_eq!(a.cycles, b.cycles, "{label}: cycles");
    assert_eq!(a.commands, b.commands, "{label}: commands");
    assert_eq!(a.spec_queries, b.spec_queries, "{label}: spec queries");
    assert_eq!(cached.final_state, fresh.final_state, "{label}: real-world final state");
    assert_eq!(cached.spec_state, fresh.spec_state, "{label}: ideal-world spec state");
    assert_eq!(cached.spec_responses, fresh.spec_responses, "{label}: spec responses");
}

/// One cell's check runs on one thread whatever the stage graph's
/// width, so a single run covers every thread count.
#[test]
fn cached_fps_matches_fresh_decode_at_all_thread_counts() {
    let fps = token_fps();
    let script = standard_script();
    let cached = run_fps(fps, true, &script);
    let fresh = run_fps(fps, false, &script);
    assert_identical(&cached, &fresh, "standard");
}

#[test]
fn cached_fps_matches_fresh_decode_on_hostile_io() {
    let fps = token_fps();
    // Garbage and idle between commands: boundaries land mid-frame, so
    // cached and uncached runs must agree even about partial traffic.
    let script = vec![
        HostOp::Garbage(vec![0xFF, 0x00, 0xA5]),
        HostOp::Command(cmd(3, 5)),
        HostOp::Idle(977),
        HostOp::Command(cmd(2, 10)),
        HostOp::Garbage(vec![1]),
        HostOp::Command(cmd(3, 0)),
    ];
    let cached = run_fps(fps, true, &script);
    let fresh = run_fps(fps, false, &script);
    assert_identical(&cached, &fresh, "hostile");
}

#[test]
fn cached_and_uncached_socs_tick_cycle_identically() {
    let fps = token_fps();
    let mut cached = make_soc(Cpu::Ibex, fps.fw.clone(), &fps.secret_state);
    let mut fresh = make_soc_uncached(fps.fw.clone(), &fps.secret_state);
    for cycle in 0..50_000u32 {
        assert_eq!(
            cached.get_output().observable(),
            fresh.get_output().observable(),
            "outputs diverge at cycle {cycle}"
        );
        cached.tick();
        fresh.tick();
    }
    assert_eq!(cached.core.pc(), fresh.core.pc(), "final pc");
    assert_eq!(cached.fault(), fresh.fault(), "final fault");
}

#[test]
fn socs_from_one_image_share_one_predecoded_cache() {
    // A unique image for this test (an extra nop in the handler), so
    // concurrent tests in this binary can't touch its registry entry.
    let fps = TokenFps::build(TOKEN_LC, None, None, |a| {
        a.replacen("handle:", "handle:\n    addi x0, x0, 0", 1)
    });
    let cache = DecodeCache::shared(ROM_BASE, &fps.fw.rom);
    let count = Arc::strong_count(&cache);
    // The mutation harness's pattern: many worlds from one image.
    let socs: Vec<Soc> =
        (0..4).map(|_| make_soc(Cpu::Ibex, fps.fw.clone(), &fps.secret_state)).collect();
    assert_eq!(
        Arc::strong_count(&cache),
        count + socs.len(),
        "every SoC must hold the one shared cache, not a private copy"
    );
    drop(socs);
    // A tampered image must get its own cache, never alias this one.
    let mut tampered = fps.fw.rom.clone();
    let last = tampered.len() - 1;
    tampered[last] ^= 0x01;
    let other = DecodeCache::shared(ROM_BASE, &tampered);
    assert!(!Arc::ptr_eq(&cache, &other), "tampered image aliased the clean cache");
}
