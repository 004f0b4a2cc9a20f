//! `verify` — the command-line verification driver, the analogue of
//! running the Knox2/Starling toolchain on an app×platform combination
//! (§8.1: "the only requirement is to run Knox2 on the new
//! software/hardware combination").
//!
//! Runs the proof pipeline's stage graph (`parfait_pipeline::STAGES`)
//! over one cell per platform, composing each cell's certificates into
//! one end-to-end IPR claim. `--software-only` keeps the stages not
//! keyed on the platform, `--hardware-only` the ones that are; stages
//! the platforms share run once. With `PARFAIT_CACHE_DIR` set, stages
//! whose inputs are unchanged are near-instant cache hits, so
//! re-verifying an unchanged app costs milliseconds.
//!
//! When stderr is a terminal, a live matrix view shows one lane per
//! verification cell (status, cache hits, cycles/s fed by FPS
//! heartbeats). `--metrics <path>` writes a
//! [`parfait_telemetry::manifest::RunManifest`] — build id, env knobs,
//! thread count, exit status, and the full metrics snapshot.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin verify -- --app hasher --platform ibex
//! cargo run -p parfait-bench --release --bin verify -- --app ecdsa  --platform pico --software-only
//! cargo run -p parfait-bench --release --bin verify -- --app totp   --platform both --metrics m.json
//! ```

use std::collections::HashSet;
use std::process::ExitCode;

use parfait_bench::{emit_manifest, path_arg_from, threads_from, write_json};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{run_cells, Cell, Pipeline, StageOutcome, StageSet, StdApp};
use parfait_telemetry::json::Json;
use parfait_telemetry::progress::MatrixView;
use parfait_telemetry::sinks::{Fanout, LogSink};
use parfait_telemetry::{Recorder, Telemetry};

fn usage() -> u8 {
    eprintln!(
        "usage: verify --app <ecdsa|hasher|totp> --platform <ibex|pico|both> \
         [--software-only|--hardware-only] [--threads <n>] [--json <path>] \
         [--metrics <path>] [--trace]"
    );
    1
}

/// The stages the `--software-only`/`--hardware-only` flags select:
/// each flag drops the other side, so both together select nothing.
fn selected_stages(software_only: bool, hardware_only: bool) -> StageSet {
    let mut stages = StageSet::default();
    if !hardware_only {
        stages = stages.union(StageSet::software());
    }
    if !software_only {
        stages = stages.union(StageSet::hardware());
    }
    stages
}

/// One stage outcome as a table/JSON row: name, stats, cache flag.
fn describe(outcome: &StageOutcome, platform: Option<Cpu>) -> (String, Json) {
    let cert = &outcome.certificate;
    let stats = cert.stats.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(", ");
    let line = format!(
        "  [{}{}] OK in {:.2}s{}: {stats}",
        cert.stage,
        platform.map(|c| format!("/{c}")).unwrap_or_default(),
        outcome.wall.as_secs_f64(),
        if outcome.cache_hit { " [cached]" } else { "" },
    );
    let mut fields = vec![
        ("stage".to_string(), Json::str(cert.stage.as_str())),
        ("claim_from".to_string(), Json::str(&cert.claim.0)),
        ("claim_to".to_string(), Json::str(&cert.claim.1)),
        ("inputs".to_string(), Json::str(cert.inputs.to_string())),
        ("cached".to_string(), Json::Bool(outcome.cache_hit)),
        ("seconds".to_string(), Json::Num(outcome.wall.as_secs_f64())),
    ];
    if let Some(cpu) = platform {
        fields.insert(1, ("platform".to_string(), Json::str(cpu.to_string())));
    }
    fields.extend(cert.stats.iter().map(|(k, v)| (k.clone(), Json::Int(*v))));
    (line, Json::Obj(fields))
}

fn main() -> ExitCode {
    let mut threads_used = 1usize;
    let code = run(&mut threads_used);
    // The manifest records the exit status, so it is written for
    // failed verifications too (only when `--metrics` was given).
    emit_manifest("verify", threads_used, i32::from(code));
    ExitCode::from(code)
}

fn run(threads_used: &mut usize) -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = |flag| path_arg_from(args.iter().cloned(), flag);
    let json_path = match (path("--json"), path("--metrics")) {
        (Ok(json), Ok(_)) => json,
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let mut app_name = None;
    let mut platform = "ibex".to_string();
    let mut software_only = false;
    let mut hardware_only = false;
    let mut trace = std::env::var_os("PARFAIT_TRACE").is_some();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--app" => app_name = it.next().cloned(),
            "--platform" => platform = it.next().cloned().unwrap_or_default(),
            "--software-only" => software_only = true,
            "--hardware-only" => hardware_only = true,
            "--trace" => trace = true,
            "--json" | "--threads" | "--metrics" => {
                // Validated by path_arg_from above and threads_from
                // below, over the full args.
                if it.next().is_none() {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }
    let stages = selected_stages(software_only, hardware_only);
    if stages.is_empty() {
        eprintln!("error: --software-only and --hardware-only together select no stage");
        return usage();
    }
    let threads = match threads_from(args.iter().cloned()) {
        Ok(Some(n)) => n,
        Ok(None) => parfait_parallel::default_threads(),
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    *threads_used = threads;
    let Some(name) = app_name else { return usage() };
    let Some(app) = StdApp::from_slug(&name) else { return usage() };
    let cpus: Vec<Cpu> = match platform.as_str() {
        "ibex" => vec![Cpu::Ibex],
        "pico" => vec![Cpu::Pico],
        "both" => vec![Cpu::Ibex, Cpu::Pico],
        _ => return usage(),
    };
    // The live matrix view, only when stderr is really a terminal (CI
    // logs and pipes never see ANSI control sequences).
    let view = MatrixView::stderr_if_tty();
    // `--trace` (or PARFAIT_TRACE=1) streams spans, counters, and
    // periodic FPS heartbeats to stderr while the checks run. The view
    // taps the same event stream for its cycles/s lanes.
    let mut sinks: Vec<Box<dyn Recorder>> = Vec::new();
    if trace {
        sinks.push(Box::new(LogSink::stderr()));
    }
    if let Some(v) = &view {
        sinks.push(Box::new(v.sink()));
    }
    let tel = match sinks.len() {
        0 => Telemetry::disabled(),
        1 => Telemetry::new(sinks.pop().expect("len checked")),
        _ => Telemetry::new(Box::new(Fanout::new(sinks))),
    };
    // Heartbeat cadence in simulated cycles (PARFAIT_HEARTBEAT
    // overrides; 0 disables; garbage is a loud error). The hasher check
    // runs a few hundred thousand cycles, the ECDSA checks tens of
    // millions.
    let heartbeat_cycles = parfait_telemetry::env::heartbeat_loud();
    let opt = OptLevel::O2;
    let pipeline = Pipeline::from_env(tel.clone());
    let a = app.pipeline();

    let finish = |code: u8| {
        tel.finish();
        if let Some(v) = &view {
            v.finish();
        }
        code
    };

    println!(
        "verifying {} ... (cache: {})",
        a.name,
        pipeline.cache.dir().map_or("per-process memo".into(), |d| d.display().to_string())
    );
    // Every platform's cell in one stage graph, run at the whole thread
    // budget: independent stages overlap within and across cells.
    let cells: Vec<Cell<'_>> = cpus
        .iter()
        .enumerate()
        .map(|(i, &cpu)| {
            // Lane ids double as the `cell` value FPS heartbeats carry,
            // and as the `cell` label on the `fps_cycles_per_second`
            // gauge — so the display and the metrics snapshot agree by
            // construction. Without a view, the cell's index.
            let cell = view.as_ref().map_or(i as u64, |v| {
                let lane = v.add_lane(&format!("{}/{cpu}/{opt}", a.name));
                v.set_stage(lane, "running", false);
                lane
            });
            Cell {
                pipeline: &pipeline,
                app: &a,
                cpu,
                opt,
                stages,
                obs: FpsObserver { telemetry: tel.clone(), heartbeat_cycles, cell },
            }
        })
        .collect();
    let reports = run_cells(threads, &cells);

    let mut json_results: Vec<Json> = Vec::new();
    let mut hits = 0usize;
    let mut total = 0usize;
    // Stages not keyed on the platform are one shared node: print once.
    let mut printed = HashSet::new();
    for (cell, report) in cells.iter().zip(reports) {
        let (cpu, lane) = (cell.cpu, cell.obs.cell);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                if let Some(v) = &view {
                    v.finish_lane(lane, false);
                }
                println!("  [{cpu}] FAILED: {e}");
                return finish(1);
            }
        };
        if let Some(v) = &view {
            v.set_stage(lane, "composed", report.fully_cached());
            v.finish_lane(lane, true);
        }
        for s in &report.stages {
            let platform = StageSet::hardware().contains(s.certificate.stage).then_some(cpu);
            if printed.insert((s.certificate.stage, platform)) {
                let (line, json) = describe(s, platform);
                println!("{line}");
                json_results.push(json);
                hits += s.cache_hit as usize;
                total += 1;
            }
        }
        // The cell's certificates chained into one claim (the
        // transitivity theorem).
        let c = &report.composed;
        println!(
            "  [composed/{cpu}] {} ≈IPR {} ({} stages, inputs {})",
            c.claim.0,
            c.claim.1,
            c.stages.len(),
            c.inputs.short()
        );
        json_results.push(Json::obj([
            ("stage", Json::str("composed")),
            ("platform", Json::str(cpu.to_string())),
            ("claim_from", Json::str(&c.claim.0)),
            ("claim_to", Json::str(&c.claim.1)),
            ("inputs", Json::str(c.inputs.to_string())),
            ("stages", Json::Int(c.stages.len() as i64)),
        ]));
    }
    if let Some(path) = json_path {
        let doc = Json::obj([
            ("app", Json::str(&a.name)),
            ("cache_hits", Json::Int(hits as i64)),
            ("stages", Json::Int(total as i64)),
            ("results", Json::Arr(json_results)),
        ]);
        if let Err(e) = write_json(&path, &doc) {
            eprintln!("could not write {}: {e}", path.display());
            return finish(1);
        }
        eprintln!("wrote {}", path.display());
    }
    println!(
        "verification complete: the SoC refines the {} specification ({hits}/{total} stages cached)",
        a.name
    );
    finish(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_map_to_stage_sets() {
        assert_eq!(selected_stages(false, false), StageSet::all());
        assert_eq!(selected_stages(true, false), StageSet::software());
        assert_eq!(selected_stages(false, true), StageSet::hardware());
        assert!(selected_stages(true, true).is_empty(), "both flags verify nothing");
    }
}
