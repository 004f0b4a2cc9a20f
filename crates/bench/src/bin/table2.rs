//! Table 2: lines of code for the case studies, counted from the
//! repository's actual sources.

use parfait_bench::{loc, render_table, App};

/// Lines the app developer writes for the spec (state machine + step).
fn spec_loc(app: App) -> usize {
    // Count the spec region of the source file: types + StateMachine
    // impl, excluding the codec and tests.
    let src = match app {
        App::Ecdsa => include_str!("../../../hsms/src/ecdsa/spec.rs"),
        App::Hasher => include_str!("../../../hsms/src/hasher/spec.rs"),
        App::Totp => include_str!("../../../hsms/src/totp/spec.rs"),
    };
    let spec_part = src.split("/// Byte-level encodings").next().unwrap_or(src);
    loc(spec_part)
}

/// Lines of the driver (codec + wire protocol), shared per app.
fn driver_loc(app: App) -> usize {
    let src = match app {
        App::Ecdsa => include_str!("../../../hsms/src/ecdsa/spec.rs"),
        App::Hasher => include_str!("../../../hsms/src/hasher/spec.rs"),
        App::Totp => include_str!("../../../hsms/src/totp/spec.rs"),
    };
    let codec_part = src
        .split("/// Byte-level encodings")
        .nth(1)
        .and_then(|s| s.split("#[cfg(test)]").next())
        .unwrap_or("");
    let wire = include_str!("../../../knox2/src/driver.rs");
    loc(codec_part) + loc(wire)
}

/// Software: the littlec application + generated system software.
fn software_loc(app: App) -> usize {
    let sizes = app.sizes();
    let syssw = parfait_hsms::syssw::syssw_source(sizes.state, sizes.command, sizes.response);
    loc(&app.source()) + loc(&syssw)
}

/// Hardware: the platform's RTL (core model + SoC + peripherals).
fn hardware_loc(cpu: &str) -> usize {
    let core = match cpu {
        "Ibex" => loc(include_str!("../../../cores/src/ibex.rs")),
        _ => loc(include_str!("../../../cores/src/pico.rs")),
    };
    let shared = loc(include_str!("../../../cores/src/datapath.rs"))
        + loc(include_str!("../../../soc/src/lib.rs"))
        + loc(include_str!("../../../rtl/src/mem.rs"))
        + loc(include_str!("../../../rtl/src/fifo.rs"))
        + loc(include_str!("../../../rtl/src/circuit.rs"));
    core + shared
}

fn main() {
    parfait_bench::check_args("table2 [--metrics <path>]", &[], &["--metrics"]);
    let mut rows = Vec::new();
    for app in [App::Ecdsa, App::Hasher, App::Totp] {
        for cpu in ["Ibex", "PicoRV32"] {
            rows.push(vec![
                app.to_string(),
                spec_loc(app).to_string(),
                driver_loc(app).to_string(),
                cpu.to_string(),
                software_loc(app).to_string(),
                hardware_loc(cpu).to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            "Table 2: lines of code for case studies (counted from this repository)",
            &["HSM", "Spec (LoC)", "Driver (LoC)", "Platform", "Software (LoC)", "Hardware (LoC)"],
            &rows
        )
    );
    println!("Paper shape: spec is tens of lines; implementations are 1-2 orders larger.");
    println!("Paper values: ECDSA 40/100 spec/driver, 2300 SW, 13500 HW (Ibex), 3000 HW (Pico).");
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("table2", 1, 0);
}
