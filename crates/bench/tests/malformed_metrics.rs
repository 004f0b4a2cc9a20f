//! A malformed `--metrics` is reported once, by the bin that reads it.
//!
//! perfstat, lint, mutatest, verify and serve validate `--metrics`
//! before doing any work and exit with their usage code. The manifest
//! writer that runs after them must not report the same flag again or
//! replace that code with its own.

use std::process::Command;

fn assert_one_error(bin: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("run the bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let errors = stderr.lines().filter(|l| l.contains("expects a file path")).count();
    assert_eq!(errors, 1, "{bin} {args:?}: stderr was\n{stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: no usage line in\n{stderr}");
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: stderr was\n{stderr}");
}

#[test]
fn each_bin_reports_a_malformed_metrics_flag_once_and_exits_1() {
    let bins = [
        ("perfstat", env!("CARGO_BIN_EXE_perfstat"), &["--baseline", "perf_baseline.json"][..]),
        ("lint", env!("CARGO_BIN_EXE_lint"), &[][..]),
        ("mutatest", env!("CARGO_BIN_EXE_mutatest"), &[][..]),
        ("verify", env!("CARGO_BIN_EXE_verify"), &["--app", "hasher", "--platform", "ibex"][..]),
        ("serve", env!("CARGO_BIN_EXE_serve"), &[][..]),
    ];
    for (bin, exe, base) in bins {
        // The flag trailing with no path, and followed by another flag.
        for tail in [&["--metrics"][..], &["--metrics", "--trace"][..]] {
            let args: Vec<&str> = base.iter().chain(tail).copied().collect();
            assert_one_error(bin, exe, &args);
        }
    }
}
