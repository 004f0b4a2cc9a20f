//! Ablation: the cost/benefit of assembly-circuit synchronization
//! policies (§5.4's design choice). The paper's motivation: without
//! incremental synchronization, the final equivalence check is one huge
//! query; with it, many small ones.

use std::time::Instant;

use parfait::lockstep::Codec;
use parfait_bench::render_table;
use parfait_hsms::firmware::hasher_app_source;
use parfait_hsms::hasher::{
    HasherCodec, HasherCommand, HasherState, COMMAND_SIZE, RESPONSE_SIZE, STATE_SIZE,
};
use parfait_hsms::platform::{build_firmware, make_soc, AppSizes, Cpu};
use parfait_knox2::sync::{run_until_decode, sync_handle_execution, SyncPolicy, SyncWhen};
use parfait_littlec::codegen::OptLevel;
use parfait_soc::host;

fn run(policy: SyncWhen) -> (parfait_knox2::SyncStats, f64) {
    let sizes = AppSizes { state: STATE_SIZE, command: COMMAND_SIZE, response: RESPONSE_SIZE };
    let fw = build_firmware(&hasher_app_source(), sizes, OptLevel::O2).unwrap();
    let codec = HasherCodec;
    let mut soc = make_soc(Cpu::Ibex, fw, &codec.encode_state(&HasherState { secret: [9; 32] }));
    let cmd = codec.encode_command(&HasherCommand::Hash { message: [5; 32] });
    host::send_bytes(&mut soc, &cmd, 10_000_000).unwrap();
    let handle_addr = soc.firmware().address_of("handle").unwrap();
    run_until_decode(&mut soc, handle_addr, 50_000_000).unwrap();
    let t0 = Instant::now();
    let stats = sync_handle_execution(
        &mut soc,
        &SyncPolicy { registers: policy, max_instructions: 100_000_000 },
    )
    .expect("sync passes");
    (stats, t0.elapsed().as_secs_f64())
}

fn main() {
    parfait_bench::check_args("ablation [--metrics <path>]", &[], &["--metrics"]);
    let mut rows = Vec::new();
    for (label, policy) in [
        ("every instruction", SyncWhen::EveryInstruction),
        ("control+mem (fig. 11)", SyncWhen::ControlAndMem),
        ("end of execution only", SyncWhen::Never),
    ] {
        let (stats, secs) = run(policy);
        rows.push(vec![
            label.to_string(),
            stats.instructions.to_string(),
            stats.sync_points.to_string(),
            stats.component_checks.to_string(),
            format!("{secs:.3}s"),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Ablation: synchronization policy cost (one Hash command, Ibex)",
            &["Policy", "Instructions", "Sync points", "Component checks", "Wall time"],
            &rows
        )
    );
    println!("The fig. 11 policy checks at control/memory boundaries only — a");
    println!("fraction of the per-instruction cost, while still localizing any");
    println!("divergence to a small window (end-only gives no localization).");
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("ablation", 1, 0);
}
