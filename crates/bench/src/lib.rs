//! parfait-bench — regenerates every table and figure of the paper's
//! evaluation (§8) from the live system.
//!
//! One binary per artifact:
//!
//! | Artifact | Binary | What it measures |
//! |---|---|---|
//! | Table 1  | `table1` | the levels of abstraction, from the live registry |
//! | Table 2  | `table2` | lines of code per case study, counted from the repo |
//! | Table 3  | `table3` | software (Starling) verification effort and runtime |
//! | Table 4  | `table4` | hardware (Knox2) verification time and cycles/s |
//! | Table 5  | `table5` | run-time performance in signatures/second |
//! | Fig. 11  | `fig11`  | realized synchronization points per instruction class |
//! | Ablation | `ablation` | sync-policy cost (the §5.4 design choice) |
//!
//! Beside them sit the CI gates: `lint` (any constant-time finding
//! fails), `mutatest` (the mutation verdict table), and the two
//! numeric ratchets, `perfstat` (hot-path work counters against
//! `perf_baseline.json`) and `boundstat` (certified WCET and stack
//! bounds against `bound_baseline.json`), which both judge through
//! [`ratchet::gate`]. Every binary reads its path flags (`--json`,
//! `--metrics`, `--baseline`) through [`path_arg_from`]; `bench_fps`,
//! `bench_lint`, `bench_pipeline`, `bench_serve` and `table4` reject any
//! argument they do not read through [`check_args`].
//!
//! Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]

/// The case-study applications, re-exported from the proof pipeline —
/// the single home of app sources, sizes, sample states, and build
/// plumbing (`parfait_pipeline::Pipeline` replaces the per-binary
/// firmware/spec/SoC construction this crate used to duplicate).
pub use parfait_pipeline::apps::StdApp as App;

/// The ratchet behind the `perfstat` and `boundstat` binaries and CI's
/// `perf_baseline.json` and `bound_baseline.json` gates.
pub mod ratchet;

/// The first argument in `args` that is neither one of `switches` (a
/// flag alone, `--quick`) nor one of `valued` (a flag taking the next
/// argument, `--threads 2`, whose own parser judges the value).
fn unknown_arg_from<I>(args: I, switches: &[&str], valued: &[&str]) -> Option<String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if valued.contains(&a.as_str()) {
            args.next();
        } else if !switches.contains(&a.as_str()) {
            return Some(a);
        }
    }
    None
}

/// Reject this process's first argument that is neither one of
/// `switches` nor one of `valued` (the value after a valued flag is its
/// parser's to judge): print it and `usage: <usage>` and exit 1. Call it
/// first, so a typo (`--quik`) or `--help` starts no work instead of
/// being ignored.
pub fn check_args(usage: &str, switches: &[&str], valued: &[&str]) {
    if let Some(arg) = unknown_arg_from(std::env::args().skip(1), switches, valued) {
        eprintln!("error: unknown argument {arg:?}");
        eprintln!("usage: {usage}");
        std::process::exit(1);
    }
}

/// Extract `<flag> <path>` (`--json`, `--metrics`, `--baseline`) from an
/// argument list. Distinguishes the flag being absent (`Ok(None)`) from
/// it being malformed — missing its path, or followed by another flag
/// (`Err`), so a typo'd invocation can't silently read or write a file
/// named after a flag. Both malformed shapes (`--json --whatever` and a
/// trailing lone `--json`) produce the same error text, so callers and
/// CI greps see one diagnostic for one mistake.
pub fn path_arg_from<I>(args: I, flag: &str) -> Result<Option<std::path::PathBuf>, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == flag {
            return match args.next() {
                Some(p) if !p.starts_with("--") => Ok(Some(std::path::PathBuf::from(p))),
                _ => Err(format!("{flag} expects a file path")),
            };
        }
    }
    Ok(None)
}

/// `<flag> <path>` from this process's command line, if given. The
/// bench binaries use `--json` to emit machine-readable results next to
/// the human-readable tables, `--metrics` for their run manifest.
/// Malformed usage (no path, or a flag in the path position) is a hard
/// error: exiting loudly beats a CI run that "succeeds" without the
/// requested artifact.
pub fn path_arg(flag: &str) -> Option<std::path::PathBuf> {
    match path_arg_from(std::env::args().skip(1), flag) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Extract `--threads <n>` from an argument list; `Ok(None)` when the
/// flag is absent (callers fall back to
/// [`parfait_parallel::default_threads`], which honors
/// `PARFAIT_THREADS`).
pub fn threads_from<I>(args: I) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => Ok(Some(n)),
                Some(_) => Err("--threads expects a positive integer".to_string()),
                None => Err("--threads expects a thread count".to_string()),
            };
        }
    }
    Ok(None)
}

/// `--threads <n>` from this process's command line, defaulting to
/// [`parfait_parallel::default_threads`]. Malformed usage exits loudly.
pub fn threads_arg() -> usize {
    match threads_from(std::env::args().skip(1)) {
        Ok(Some(n)) => n,
        Ok(None) => parfait_parallel::default_threads(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// If `--metrics <path>` was given, capture a [`RunManifest`] for this
/// bin — name, build id, env knobs, thread count, exit status, and a
/// snapshot of the global metrics registry — and write it to the path.
/// Call once, just before returning the bin's exit code. Write failures
/// exit loudly (a CI run must not "succeed" without its artifact), and
/// so does a malformed `--metrics` in a run that otherwise succeeded.
/// In a run that already failed it is left unreported: the bins that
/// read `--metrics` themselves reject a malformed one with their own
/// error and usage code, which must stand.
pub fn emit_manifest(bin: &str, threads: usize, exit_code: i32) {
    let path = match path_arg_from(std::env::args().skip(1), "--metrics") {
        Ok(path) => path,
        Err(_) if exit_code != 0 => return,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = path {
        parfait_telemetry::manifest::RunManifest::capture(
            bin,
            threads,
            exit_code,
            parfait_telemetry::metrics::Metrics::global(),
        )
        .write(&path);
        eprintln!("wrote {}", path.display());
    }
}

/// Write a JSON document to `path` (with a trailing newline).
pub fn write_json(
    path: &std::path::Path,
    value: &parfait_telemetry::json::Json,
) -> std::io::Result<()> {
    let mut text = value.to_string();
    text.push('\n');
    std::fs::write(path, text)
}

/// Count the non-blank, non-comment lines of a source string.
pub fn loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("#"))
        .count()
}

/// Render an ASCII table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:w$} ", h, w = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("| {:w$} ", cell, w = widths[i]));
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_code_lines() {
        assert_eq!(loc("a\n\n// c\n  b\n# d\n"), 2);
    }

    #[test]
    fn render_is_aligned() {
        let t = render_table(
            "T",
            &["col", "x"],
            &[vec!["a".into(), "123".into()], vec!["long".into(), "4".into()]],
        );
        assert!(t.contains("| col  | x   |"));
    }

    #[test]
    fn apps_build() {
        let _ = App::Hasher.firmware(parfait_littlec::codegen::OptLevel::O2);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn path_flags_parse_when_well_formed() {
        for flag in ["--json", "--metrics", "--baseline"] {
            assert_eq!(path_arg_from(args(&["--quick"]), flag).unwrap(), None);
            assert_eq!(path_arg_from(args(&[]), flag).unwrap(), None);
            assert_eq!(
                path_arg_from(args(&["--quick", flag, "out.json"]), flag).unwrap(),
                Some(std::path::PathBuf::from("out.json"))
            );
        }
    }

    #[test]
    fn a_flag_in_the_path_slot_or_a_trailing_flag_is_one_loud_error() {
        // `perfstat --baseline perf_baseline.json --json --update` used
        // to write its JSON to a file named `--update` and skip the
        // update; each malformed shape is now the same error.
        for flag in ["--json", "--metrics", "--baseline"] {
            let trailing = path_arg_from(args(&["--quick", flag]), flag).unwrap_err();
            let flag_like = path_arg_from(args(&[flag, "--update"]), flag).unwrap_err();
            let bare_dashes = path_arg_from(args(&[flag, "--"]), flag).unwrap_err();
            assert_eq!(trailing, format!("{flag} expects a file path"));
            assert_eq!(trailing, flag_like);
            assert_eq!(trailing, bare_dashes);
        }
    }

    #[test]
    fn unknown_args_are_named_and_flag_values_are_skipped() {
        let (switches, valued) = (&["--quick"][..], &["--threads", "--json"][..]);
        let unknown = |list: &[&str]| unknown_arg_from(args(list), switches, valued);
        assert_eq!(unknown(&[]), None);
        assert_eq!(unknown(&["--quick", "--threads", "2", "--json", "out.json"]), None);
        // A value is the flag's parser's to judge, even one like a flag.
        assert_eq!(unknown(&["--json", "--help"]), None);
        assert_eq!(unknown(&["--help"]).as_deref(), Some("--help"));
        assert_eq!(unknown(&["--quick", "--quik"]).as_deref(), Some("--quik"));
        assert_eq!(unknown(&["--threads", "2", "extra"]).as_deref(), Some("extra"));
    }

    #[test]
    fn threads_flag_parses_and_rejects_garbage() {
        assert_eq!(threads_from(args(&[])).unwrap(), None);
        assert_eq!(threads_from(args(&["--threads", "4"])).unwrap(), Some(4));
        assert!(threads_from(args(&["--threads"])).is_err());
        assert!(threads_from(args(&["--threads", "zero"])).is_err());
        assert!(threads_from(args(&["--threads", "0"])).is_err());
    }
}
