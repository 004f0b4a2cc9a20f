//! Table 5: run-time performance of the ECDSA HSM in signatures per
//! second, comparing compiler optimization levels (the paper compares
//! CompCert -O1 against GCC -O2) and quoting the commercial HSMs.
//!
//! The Ibex runs at 100 MHz (the OpenTitan reference clock), so
//! sig/s = 100e6 / cycles-per-signature.

use parfait::lockstep::Codec;
use parfait_bench::{render_table, App};
use parfait_hsms::ecdsa::{EcdsaCodec, EcdsaCommand};
use parfait_hsms::platform::{make_soc, Cpu};
use parfait_knox2::WireDriver;
use parfait_littlec::codegen::OptLevel;
use parfait_rtl::Circuit;

const CLOCK_HZ: f64 = 100e6;

fn cycles_per_sign(opt: OptLevel) -> u64 {
    let app = App::Ecdsa;
    let sizes = app.sizes();
    let fw = app.firmware(opt);
    let mut soc = make_soc(Cpu::Ibex, fw, &app.secret_state());
    let wire = WireDriver {
        command_size: sizes.command,
        response_size: sizes.response,
        timeout: 20_000_000_000,
    };
    let cmd = EcdsaCodec.encode_command(&EcdsaCommand::Sign { msg: [0x3C; 32] });
    let before = soc.cycles();
    let resp = wire.run(&mut soc, &cmd).expect("sign completes");
    assert_eq!(resp[0], 2, "a real signature came back");
    soc.cycles() - before
}

fn main() {
    parfait_bench::check_args("table5 [--metrics <path>]", &[], &["--metrics"]);
    let mut rows = Vec::new();
    let mut baseline = None;
    for (label, opt) in [
        ("littlec -O0 (verified-compiler stand-in)", OptLevel::O0),
        ("littlec -O1", OptLevel::O1),
        ("littlec -O2 (GCC -O2 stand-in)", OptLevel::O2),
    ] {
        eprintln!("measuring {label}...");
        let cycles = cycles_per_sign(opt);
        let sig_s = CLOCK_HZ / cycles as f64;
        let base = *baseline.get_or_insert(sig_s);
        rows.push(vec![
            format!("Parfait ECDSA/Ibex, {label}"),
            format!("{sig_s:.2}"),
            format!("{:.1}x", sig_s / base),
            format!("{cycles} cycles/sig"),
        ]);
    }
    // Commercial HSM rows quoted from the paper (we have no hardware).
    rows.push(vec![
        "Nitrokey HSM 2 (quoted from the paper)".into(),
        "12.5".into(),
        format!("{:.1}x", 12.5 / baseline.unwrap()),
        "-".into(),
    ]);
    rows.push(vec![
        "YubiHSM 2 (quoted from the paper)".into(),
        "13.7".into(),
        format!("{:.1}x", 13.7 / baseline.unwrap()),
        "-".into(),
    ]);
    println!(
        "{}",
        render_table(
            "Table 5: ECDSA signing throughput at a 100 MHz clock",
            &["HSM / compiler", "Sig/s", "Speedup", "Detail"],
            &rows
        )
    );
    println!("Paper shape: the unoptimized verified-compiler build is several times");
    println!("slower than the optimized build (paper: 1.1 vs 8.1 sig/s, 7x), and");
    println!("commercial HSMs are within roughly an order of magnitude.");
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("table5", 1, 0);
}
