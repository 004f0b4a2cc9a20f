//! Figure 11: synchronization points and actions, as realized during an
//! actual verified execution — for each instruction class retired while
//! `handle` ran, the sync action the fig. 11 policy performs.

use std::collections::BTreeMap;

use parfait_bench::{path_arg, render_table, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::sync::{run_until_decode, snapshot_isa_machine};
use parfait_littlec::codegen::OptLevel;
use parfait_parallel::parallel_map;
use parfait_riscv::decode::decode;
use parfait_riscv::isa::Instr;
use parfait_rtl::Circuit;
use parfait_soc::host;
use parfait_telemetry::json::Json;

fn class_of(i: Instr) -> (&'static str, &'static str) {
    match i {
        Instr::Branch { .. } => ("branch (beq/bne/blt/...)", "sync registers + buffers"),
        Instr::Jal { .. } | Instr::Jalr { .. } => {
            ("call/return (jal/jalr)", "sync registers + buffers")
        }
        Instr::Load { .. } => ("load (lw/lbu/...)", "sync registers + buffers"),
        Instr::Store { .. } => ("store (sw/sb/...)", "sync registers + buffers"),
        Instr::Op { op, .. } if op.is_muldiv() => ("mul/div", "sync registers"),
        Instr::OpImm { .. } | Instr::Op { .. } | Instr::Lui { .. } | Instr::Auipc { .. } => {
            ("arithmetic", "no sync (checked at next point)")
        }
        _ => ("other", "no sync"),
    }
}

/// Walk one verified Hash command on `cpu`, classifying the
/// instructions `handle` retires.
fn profile(cpu: Cpu) -> BTreeMap<(&'static str, &'static str), u64> {
    // The pipeline's app description is the single source of firmware,
    // provisioned state, and workload encodings.
    let mut soc = App::Hasher.soc(cpu, OptLevel::O2);
    let cmd = App::Hasher.workload_command();
    host::send_bytes(&mut soc, &cmd, 10_000_000).unwrap();
    let handle_addr = soc.firmware().address_of("handle").unwrap();
    run_until_decode(&mut soc, handle_addr, 50_000_000).unwrap();
    // Walk handle's execution, classifying retired instructions.
    let isa = snapshot_isa_machine(&soc);
    let return_addr = isa.regs[1];
    let mut counts: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut done = false;
    while !done {
        soc.tick();
        if let Some((word, _pc)) = soc.core.last_retired() {
            if let Ok(i) = decode(word) {
                *counts.entry(class_of(i)).or_insert(0) += 1;
                if let Instr::Jalr { rs1, rd, off: 0 } = i {
                    // handle's final return: jalr zero, ra, 0 back to main.
                    if rd == parfait_riscv::isa::Reg::ZERO
                        && rs1 == parfait_riscv::isa::Reg::RA
                        && soc.core.pc() == return_addr
                    {
                        done = true;
                    }
                }
            }
        }
    }
    counts
}

fn main() {
    parfait_bench::check_args(
        "fig11 [--json <path>] [--metrics <path>]",
        &[],
        &["--json", "--metrics"],
    );
    // Both platforms profile concurrently (each is an independent SoC
    // run); one thread each is plenty for this figure.
    let cpus = [Cpu::Ibex, Cpu::Pico];
    let profiles = parallel_map(cpus.len(), cpus.to_vec(), |_, cpu| (cpu, profile(cpu)));
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    for (cpu, counts) in &profiles {
        for ((class, action), n) in counts {
            rows.push(vec![cpu.to_string(), class.to_string(), action.to_string(), n.to_string()]);
            json_rows.push(Json::obj([
                ("platform", Json::str(cpu.to_string())),
                ("class", Json::str(*class)),
                ("action", Json::str(*action)),
                ("retired", Json::Int(*n as i64)),
            ]));
        }
    }
    println!(
        "{}",
        render_table(
            "Figure 11 (realized): sync points during one verified Hash command",
            &["Platform", "Instruction class", "Knox2 action", "Retired"],
            &rows
        )
    );
    if let Some(path) = path_arg("--json") {
        let doc = Json::obj([("artifact", Json::str("fig11")), ("rows", Json::Arr(json_rows))]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("fig11", 1, 0);
}
