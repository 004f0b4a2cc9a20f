//! The matrix benchmarks and the table and figure bins reject an
//! argument they do not read before doing any work: `--help` or a typo
//! such as `--quik` prints a `usage:` line and exits 1 instead of
//! running the whole matrix or printing the table.

use std::process::Command;

#[test]
fn each_table_and_benchmark_bin_rejects_help_and_a_typo_with_its_usage() {
    let bins = [
        ("bench_pipeline", env!("CARGO_BIN_EXE_bench_pipeline")),
        ("bench_fps", env!("CARGO_BIN_EXE_bench_fps")),
        ("bench_lint", env!("CARGO_BIN_EXE_bench_lint")),
        ("bench_serve", env!("CARGO_BIN_EXE_bench_serve")),
        ("table4", env!("CARGO_BIN_EXE_table4")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("table3", env!("CARGO_BIN_EXE_table3")),
        ("table5", env!("CARGO_BIN_EXE_table5")),
        ("fig11", env!("CARGO_BIN_EXE_fig11")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
        ("bench_mutatest", env!("CARGO_BIN_EXE_bench_mutatest")),
    ];
    for (bin, exe) in bins {
        for arg in ["--help", "--quik"] {
            let out = Command::new(exe).arg(arg).output().expect("run the bin");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("usage: {bin} ")),
                "{bin} {arg}: stderr was\n{stderr}"
            );
            assert!(stderr.contains(arg), "{bin} {arg}: the argument is named in\n{stderr}");
            assert_eq!(out.status.code(), Some(1), "{bin} {arg}: stderr was\n{stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.is_empty(), "{bin} {arg}: it started work:\n{stdout}");
        }
    }
}
