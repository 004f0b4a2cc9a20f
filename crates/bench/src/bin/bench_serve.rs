//! `bench_serve` — serve-daemon throughput vs. the sequential batch
//! path, on identical request mixes.
//!
//! Builds a two-tenant request mix with heavy duplication (every
//! (tenant, cell) appears several times, the service's actual workload
//! shape: many clients asking for the same proofs), then runs it twice
//! against private, guaranteed-cold caches:
//!
//! - **sequential leg**: every request is its own one-shot session
//!   (`verify` + `flush`) on a single-threaded core — the batch tool's
//!   behavior, where a duplicate costs a full warm cache pass.
//! - **serve leg**: the whole mix as one session batch — duplicates
//!   collapse in the stage DAG, shared stages run once per tenant.
//!
//! Asserts (a) both legs answer every request with no error frames,
//! (b) the composed certificates agree byte-for-byte across legs for
//! every (tenant, cell), (c) both legs ran the same number of cold
//! stage computations (the dedup never *recomputes*), and (d) the
//! serve leg's request throughput is at least the sequential leg's.
//! On a one-core box that last bound comes from doing strictly less
//! warm-path work, not from parallel wall-clock speedup — no speedup
//! factor is reported or claimed (see EXPERIMENTS.md).
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_serve -- --quick --json BENCH_serve.json
//! ```

use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::Instant;

use parfait_bench::{path_arg, render_table, threads_arg, write_json};
use parfait_pipeline::serve::server::handle_session;
use parfait_pipeline::{CertCache, ServeCore};
use parfait_telemetry::json::{parse, Json};
use parfait_telemetry::metrics::Metrics;
use parfait_telemetry::Telemetry;

const TENANTS: [&str; 2] = ["alpha", "beta"];
/// Copies of every (tenant, cell) request in the mix.
const DUPLICATES: usize = 6;

/// One leg's outcome: wall seconds, per-(tenant, cell) composed
/// certificates (canonical JSON), and cold stage computations.
struct Leg {
    wall: f64,
    requests: usize,
    composed: BTreeMap<String, String>,
    misses: u64,
}

fn request_line(id: usize, tenant: &str, cell: &(&str, &str, &str)) -> String {
    let (app, cpu, opt) = cell;
    format!(
        r#"{{"op":"verify","id":"r{id}","tenant":"{tenant}","app":"{app}","cpu":"{cpu}","opt":"{opt}"}}"#
    )
}

/// Run `sessions` (each a JSONL string) against one fresh core,
/// collecting every result frame and failing loudly on error frames.
fn run_leg(label: &str, threads: usize, sessions: &[String]) -> Leg {
    let dir =
        std::env::temp_dir().join(format!("parfait-bench-serve-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = Metrics::new();
    let cache = CertCache::at_with(dir.clone(), metrics);
    let core = ServeCore::new(cache, Telemetry::disabled(), threads);
    let mut composed = BTreeMap::new();
    let mut requests = 0usize;
    let t0 = Instant::now();
    for session in sessions {
        let mut out = Vec::new();
        handle_session(&core, Cursor::new(session.as_bytes()), &mut out)
            .expect("in-memory session cannot fail transport");
        for line in String::from_utf8(out).expect("frames are utf-8").lines() {
            let frame = parse(line).expect("frames are valid JSON");
            match frame.get("frame").and_then(Json::as_str) {
                Some("result") => {
                    requests += 1;
                    let key = format!(
                        "{}/{}/{}/{}",
                        frame.get("tenant").and_then(Json::as_str).unwrap_or("?"),
                        frame.get("app").and_then(Json::as_str).unwrap_or("?"),
                        frame.get("cpu").and_then(Json::as_str).unwrap_or("?"),
                        frame.get("opt").and_then(Json::as_str).unwrap_or("?"),
                    );
                    let cert = frame.get("composed").expect("result carries composed").to_string();
                    // Duplicate requests must agree with each other too.
                    if let Some(prev) = composed.insert(key.clone(), cert.clone()) {
                        assert_eq!(prev, cert, "{label}: duplicates of {key} diverged");
                    }
                }
                Some("error") => panic!("{label}: unexpected error frame: {line}"),
                _ => {}
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let misses = core
        .metrics()
        .snapshot()
        .counters
        .iter()
        .filter(|(k, _)| {
            k.name == "pipeline_stage_runs_total"
                && k.labels.iter().any(|(lk, lv)| lk == "outcome" && lv == "miss")
        })
        .map(|(_, v)| *v)
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    Leg { wall, requests, composed, misses }
}

fn main() {
    parfait_bench::check_args(
        "bench_serve [--quick] [--threads <n>] [--json <path>] [--metrics <path>]",
        &["--quick"],
        &["--threads", "--json", "--metrics"],
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_arg();
    let mut cells: Vec<(&str, &str, &str)> =
        vec![("hasher", "pico", "-O0"), ("hasher", "pico", "-O1"), ("hasher", "pico", "-O2")];
    if !quick {
        cells.extend([("hasher", "ibex", "-O0"), ("hasher", "ibex", "-O2")]);
    }
    let mut lines = Vec::new();
    for _ in 0..DUPLICATES {
        for tenant in TENANTS {
            for cell in &cells {
                lines.push(request_line(lines.len(), tenant, cell));
            }
        }
    }

    // Sequential leg first (one-core box: never interleave the legs):
    // every request is its own session on a single-threaded core.
    eprintln!("sequential leg: {} one-shot sessions...", lines.len());
    let seq_sessions: Vec<String> =
        lines.iter().map(|l| format!("{l}\n{{\"op\":\"flush\"}}\n")).collect();
    let seq = run_leg("seq", 1, &seq_sessions);

    // Serve leg: the same mix as one batch, closed by a shutdown.
    eprintln!("serve leg: one batch of {} requests...", lines.len());
    let serve_session = format!("{}\n{{\"op\":\"shutdown\"}}\n", lines.join("\n"));
    let serve = run_leg("serve", threads, &[serve_session]);

    assert_eq!(seq.requests, lines.len(), "sequential leg answered every request");
    assert_eq!(serve.requests, lines.len(), "serve leg answered every request");
    assert_eq!(
        seq.composed, serve.composed,
        "composed certificates must be byte-identical across legs"
    );
    assert_eq!(
        seq.misses, serve.misses,
        "both legs cold-compute the same unique stage set (dedup never recomputes)"
    );
    let seq_rps = seq.requests as f64 / seq.wall.max(1e-9);
    let serve_rps = serve.requests as f64 / serve.wall.max(1e-9);
    assert!(
        serve_rps >= seq_rps,
        "serve throughput ({serve_rps:.1} req/s) fell below sequential ({seq_rps:.1} req/s)"
    );

    println!(
        "{}",
        render_table(
            "parfait-serve: batched service vs. sequential one-shot sessions",
            &["Leg", "Requests", "Cold stages", "Wall", "Req/s"],
            &[
                vec![
                    "sequential".into(),
                    seq.requests.to_string(),
                    seq.misses.to_string(),
                    format!("{:.3}s", seq.wall),
                    format!("{seq_rps:.1}"),
                ],
                vec![
                    "serve".into(),
                    serve.requests.to_string(),
                    serve.misses.to_string(),
                    format!("{:.3}s", serve.wall),
                    format!("{serve_rps:.1}"),
                ],
            ]
        )
    );
    println!(
        "certificates byte-identical across legs for {} (tenant, cell) keys;",
        serve.composed.len()
    );
    println!("equal cold-stage counts show the DAG dedup reuses, never recomputes.");

    if let Some(path) = path_arg("--json") {
        let doc = Json::obj([
            ("artifact", Json::str("bench_serve")),
            ("threads", Json::Int(threads as i64)),
            ("tenants", Json::Int(TENANTS.len() as i64)),
            ("cells", Json::Int(cells.len() as i64)),
            ("requests", Json::Int(lines.len() as i64)),
            ("sequential_seconds", Json::Num(seq.wall)),
            ("serve_seconds", Json::Num(serve.wall)),
            ("sequential_rps", Json::Num(seq_rps)),
            ("serve_rps", Json::Num(serve_rps)),
            ("cold_stages", Json::Int(serve.misses as i64)),
            ("certificates_identical", Json::Bool(true)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    parfait_bench::emit_manifest("bench_serve", threads, 0);
}
