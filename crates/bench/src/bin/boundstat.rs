//! `boundstat` — the certified-resource-bound ratchet driver.
//!
//! Runs the `bound` pipeline stage (whole-firmware WCET and stack
//! analysis, DESIGN.md §16) for every production verification cell —
//! each app at each of its opt levels on both platforms — and reports
//! each cell as two lower-is-better values,
//! `<app>/<cpu>/<opt>/wcet_cycles` and `…/stack_depth`. It gates them
//! against `bound_baseline.json` through
//! [`parfait_bench::ratchet::gate`]: bounds may only *tighten* without
//! `--update`, and `--update` refuses a loosened or vanished bound. The
//! run is fully static — no simulation — so the whole matrix certifies
//! in seconds.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin boundstat -- --baseline bound_baseline.json
//! cargo run -p parfait-bench --release --bin boundstat -- --baseline bound_baseline.json --update
//! ```

use std::process::ExitCode;

use parfait_bench::ratchet::{self, Direction, Measurement};
use parfait_bench::{path_arg_from, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_pipeline::{CertCache, Pipeline};
use parfait_telemetry::Telemetry;

fn usage() -> u8 {
    eprintln!("usage: boundstat --baseline <path> [--update] [--json <path>]");
    1
}

/// Certify every production cell: `"app/cpu/opt/<stat>"` → bound.
fn measure() -> Result<Measurement, String> {
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    let mut m = Measurement::default();
    for app in [App::Hasher, App::Totp, App::Ecdsa] {
        let a = app.pipeline();
        for &opt in &a.opt_levels.clone() {
            for cpu in [Cpu::Ibex, Cpu::Pico] {
                let cell = format!("{}/{cpu}/{opt}", a.slug);
                let outcome =
                    pipeline.bound_stage(&a, cpu, opt).map_err(|e| format!("{cell}: {e}"))?;
                for stat in ["wcet_cycles", "stack_depth"] {
                    let bound = outcome
                        .certificate
                        .stat(stat)
                        .filter(|&v| v >= 0)
                        .map(|v| v as u64)
                        .ok_or_else(|| format!("{cell}: certificate lacks stat {stat}"))?;
                    m.values.insert(format!("{cell}/{stat}"), (bound, Direction::LowerIsBetter));
                }
            }
        }
    }
    Ok(m)
}

fn main() -> ExitCode {
    ExitCode::from(run())
}

fn run() -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = |flag| path_arg_from(args.iter().cloned(), flag);
    let (baseline, json) = match (path("--baseline"), path("--json")) {
        (Ok(Some(baseline)), Ok(json)) => (baseline, json),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return usage();
        }
        _ => return usage(),
    };
    let mut do_update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--update" => do_update = true,
            // Each path was read above by path_arg_from.
            "--baseline" | "--json" => {
                it.next();
            }
            _ => return usage(),
        }
    }

    let m = match measure() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!("{}", m.render("boundstat: certified resource bounds"));
    if let Some(path) = &json {
        if let Err(e) = write_json(path, &m.to_json("boundstat")) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    ratchet::gate(&baseline, &m, do_update, "boundstat")
}
