//! `serve` — the parfait proof daemon (`parfait-serve`).
//!
//! Turns the batch pipeline into a long-running service: clients stream
//! JSONL verify requests (DESIGN.md §17), the daemon schedules the
//! deduplicated stage DAG across its thread budget, and every result is
//! a composed certificate byte-identical to what the batch `verify`
//! tool would have produced. Two transports share one
//! [`parfait_pipeline::ServeCore`] — one single-flight certificate
//! cache, one metrics registry:
//!
//! - **stdio** (default): one session over stdin/stdout, so
//!   `serve < requests.jsonl > replies.jsonl` is a complete CI
//!   invocation with no socket setup.
//! - **Unix socket** (`--socket <path>` or `PARFAIT_SOCKET`): one
//!   thread per connection until some client sends `shutdown`;
//!   concurrent sessions asking for the same cold certificate run the
//!   stage once (single-flight), everyone waits for the leader.
//!
//! Tenants are isolated by cache namespace: a request's `tenant` field
//! selects a subdirectory of `PARFAIT_CACHE_DIR`, and one tenant's
//! certificates are never served to another.
//!
//! ```sh
//! PARFAIT_CACHE_DIR=/tmp/certs serve < session.jsonl
//! PARFAIT_CACHE_DIR=/tmp/certs serve --socket /tmp/parfait.sock --threads 4
//! ```

use std::process::ExitCode;

use parfait_bench::{emit_manifest, path_arg_from, threads_from};
use parfait_pipeline::{CertCache, ServeCore};
use parfait_telemetry::sinks::LogSink;
use parfait_telemetry::Telemetry;

fn usage() -> u8 {
    eprintln!("usage: serve [--threads <n>] [--socket <path>] [--metrics <path>] [--trace]");
    1
}

fn main() -> ExitCode {
    let mut threads_used = 1usize;
    let code = run(&mut threads_used);
    emit_manifest("serve", threads_used, i32::from(code));
    ExitCode::from(code)
}

fn run(threads_used: &mut usize) -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut trace = std::env::var_os("PARFAIT_TRACE").is_some();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.clone()),
                None => return usage(),
            },
            "--trace" => trace = true,
            "--threads" | "--metrics" => {
                // Validated below over the full args, which names the
                // flag when its value is missing.
                it.next();
            }
            _ => return usage(),
        }
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
    if let Err(e) = path_arg_from(args.iter().cloned(), "--metrics") {
        eprintln!("error: {e}");
        return usage();
    }
    let socket = socket.map(std::path::PathBuf::from).or_else(parfait_telemetry::env::socket_loud);
    let tel =
        if trace { Telemetry::new(Box::new(LogSink::stderr())) } else { Telemetry::disabled() };
    let heartbeat = parfait_telemetry::env::heartbeat_loud();
    let cache = CertCache::from_env();
    eprintln!(
        "serve: {} threads, cache {}, {}",
        threads,
        cache.dir().map_or("per-process memo only".into(), |d| d.display().to_string()),
        socket.as_ref().map_or("stdio session".into(), |p| format!("socket {}", p.display())),
    );
    let core = ServeCore::new(cache, tel.clone(), threads).with_heartbeat(heartbeat);
    let outcome = match &socket {
        Some(path) => parfait_pipeline::serve::server::serve_socket(&core, path),
        None => parfait_pipeline::serve::server::serve_stdio(&core).map(|_| ()),
    };
    tel.finish();
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: transport failed: {e}");
            1
        }
    }
}
