//! `mutatest` — the cross-level mutation-testing driver.
//!
//! Runs the `parfait-adversary` catalog (DESIGN.md §12): seeded faults
//! at every implementation level, each driven through every stage of
//! its cell, recording which stage kills it. Exits nonzero
//! on any survivor, on any kill that moved to a different stage than
//! the ratcheted baseline records, or on a catalog class the baseline
//! has never seen.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin mutatest -- --baseline mutation_baseline.json
//! cargo run -p parfait-bench --release --bin mutatest -- --quick --json mutants.json
//! cargo run -p parfait-bench --release --bin mutatest -- --level crypto --level soc
//! cargo run -p parfait-bench --release --bin mutatest -- --baseline mutation_baseline.json --update
//! ```

use std::process::ExitCode;

use parfait_adversary::{catalog, controls, diff, reports_to_json, run_catalog, Baseline, Level};
use parfait_bench::{emit_manifest, write_json};
use parfait_pipeline::{CertCache, Pipeline};
use parfait_telemetry::Telemetry;

fn usage() -> u8 {
    eprintln!(
        "usage: mutatest [--quick] [--level <crypto|codegen|isa|core|soc|emulator>]... \
         [--baseline <path>] [--update] [--threads N] [--json <path>] [--metrics <path>]"
    );
    1
}

fn main() -> ExitCode {
    let mut threads_used = 1usize;
    let code = run(&mut threads_used);
    // Manifest (only with `--metrics`) records the exit status, so
    // failed runs leave an artifact too.
    emit_manifest("mutatest", threads_used, i32::from(code));
    ExitCode::from(code)
}

fn run(threads_used: &mut usize) -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut update = false;
    let mut levels: Vec<Level> = Vec::new();
    let mut baseline_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut threads = parfait_parallel::default_threads();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--update" => update = true,
            "--level" => match it.next().and_then(|s| Level::from_name(s)) {
                Some(l) => levels.push(l),
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => return usage(),
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => return usage(),
            },
            "--metrics" => {
                // Validated below by metrics_path_from over the full args.
                if it.next().is_none() {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }
    *threads_used = threads;
    if let Err(e) = parfait_bench::metrics_path_from(args.iter().cloned()) {
        eprintln!("error: {e}");
        return usage();
    }
    if update && baseline_path.is_none() {
        eprintln!("error: --update needs --baseline <path>");
        return usage();
    }

    // Select the run set: the full catalog plus clean controls, or the
    // deterministic one-per-level `--quick` sample (no controls —
    // quick mode is the CI smoke gate), optionally filtered by level.
    let mut muts = catalog();
    let sampled = quick || !levels.is_empty();
    if quick {
        muts.retain(|m| m.quick);
    }
    if !levels.is_empty() {
        muts.retain(|m| levels.contains(&m.level));
    }
    if !sampled {
        muts.extend(controls());
    }
    if muts.is_empty() {
        eprintln!("error: no mutations selected");
        return 1;
    }

    let pipeline = Pipeline::new(CertCache::from_env(), Telemetry::default());
    let reports = run_catalog(&pipeline, &muts, threads);

    // Controls are *expected* to survive; everything else must die.
    let is_control = |class: &str| class.starts_with("clean-");
    let bad_survivors: Vec<&str> = reports
        .iter()
        .filter(|r| r.killed_by.is_none() && !is_control(&r.class))
        .map(|r| r.class.as_str())
        .collect();
    let killed_controls: Vec<&str> = reports
        .iter()
        .filter(|r| r.killed_by.is_some() && is_control(&r.class))
        .map(|r| r.class.as_str())
        .collect();
    println!(
        "mutatest: {} mutant(s), {} thread(s){}",
        reports.len(),
        threads,
        if quick { " [quick]" } else { "" }
    );
    for r in &reports {
        println!(
            "  {:<28} {:<9} {:<20} {:>6} ms  {}",
            r.class,
            r.level.as_str(),
            r.verdict(),
            r.wall.as_millis(),
            r.detail.lines().next().unwrap_or("")
        );
    }
    println!("\n{}", parfait_adversary::Matrix::tally(&reports).render());

    if let Some(path) = &json_path {
        if let Err(e) = write_json(std::path::Path::new(path), &reports_to_json(&reports, threads))
        {
            eprintln!("error: {e}");
            return 1;
        }
        println!("wrote {path}");
    }

    match (&baseline_path, update) {
        (Some(path), true) => {
            if sampled {
                eprintln!("error: refusing to --update from a sampled run (drop --quick/--level)");
                return 1;
            }
            if !bad_survivors.is_empty() || !killed_controls.is_empty() {
                eprintln!(
                    "error: refusing to ratchet: surviving mutants [{}], killed controls [{}]",
                    bad_survivors.join(", "),
                    killed_controls.join(", ")
                );
                return 1;
            }
            let b = Baseline::from_reports(&reports);
            if let Err(e) = b.store(std::path::Path::new(path)) {
                eprintln!("error: {e}");
                return 1;
            }
            println!("baseline updated: {path} ({} classes)", b.expected.len());
            0
        }
        (Some(path), false) => {
            let baseline = match Baseline::load(std::path::Path::new(path)) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            let d = diff(&baseline, &reports);
            if !d.unexercised.is_empty() {
                if sampled {
                    println!(
                        "note: {} baseline class(es) not exercised by this sampled run",
                        d.unexercised.len()
                    );
                } else {
                    for class in &d.unexercised {
                        println!(
                            "note: baseline class {class} is no longer in the catalog — \
                             ratchet it out with --update"
                        );
                    }
                }
            }
            if d.violations.is_empty() {
                println!("baseline clean: every exercised class killed by its recorded stage");
                0
            } else {
                for v in &d.violations {
                    eprintln!("error: {v}");
                }
                eprintln!("{} baseline violation(s)", d.violations.len());
                1
            }
        }
        (None, _) => {
            if !bad_survivors.is_empty() {
                eprintln!(
                    "error: {} surviving mutant(s): {}",
                    bad_survivors.len(),
                    bad_survivors.join(", ")
                );
                return 1;
            }
            if !killed_controls.is_empty() {
                eprintln!("error: clean control(s) failed: {}", killed_controls.join(", "));
                return 1;
            }
            println!("all mutants killed; all controls survived");
            0
        }
    }
}
