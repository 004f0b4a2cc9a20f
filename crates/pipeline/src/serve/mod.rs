//! parfait-serve — the pipeline as a long-running proof service.
//!
//! The batch tool verifies one cell at a time in one process; this
//! module turns the same pipeline into a daemon many developers and CI
//! jobs can hammer concurrently. The pieces:
//!
//! - [`protocol`] — the JSONL request/frame grammar (DESIGN.md §17).
//! - [`sched`] — the DAG scheduler every caller of the stage graph
//!   ([`crate::graph`]) runs on: a batch of cells decomposes into
//!   unique (tenant, app, cpu, opt)-scoped stage nodes with fail-fast
//!   dependency edges, so a speccheck shared by every cell of an app
//!   runs once and unblocks all of them.
//! - [`server`] — the session loop (stdin/stdout or a Unix socket at
//!   `PARFAIT_SOCKET`), with per-line size caps and graceful drain.
//! - [`ServeCore`] — the shared state: one concurrent [`CertCache`]
//!   (single-flight, per-tenant namespaces), an app registry, and the
//!   thread budget.
//!
//! Result certificates are byte-identical to the batch runner's — the
//! stress harness (`tests/serve_stress.rs`) holds an 8-client
//! contended run to a sequential oracle byte-for-byte.

pub mod protocol;
pub mod sched;
pub mod server;

use std::collections::HashMap;
use std::sync::Arc;

use parfait_knox2::FpsObserver;
use parfait_telemetry::json::Json;
use parfait_telemetry::metrics::Metrics;
use parfait_telemetry::Telemetry;

use crate::apps::{AppPipeline, StdApp};
use crate::cache::CertCache;
use crate::graph::{run_cells, Cell};
use crate::pipeline::Pipeline;
use protocol::{error_frame, VerifyRequest};

/// The daemon's shared state: cache, telemetry, app registry, budget.
pub struct ServeCore {
    cache: CertCache,
    tel: Telemetry,
    apps: HashMap<String, Arc<AppPipeline>>,
    threads: usize,
    heartbeat: u64,
}

impl ServeCore {
    /// A core serving the standard app registry ([`StdApp::ALL`]).
    pub fn new(cache: CertCache, tel: Telemetry, threads: usize) -> ServeCore {
        let apps = StdApp::ALL.iter().map(|a| Arc::new(a.pipeline())).collect();
        ServeCore::with_apps(cache, tel, threads, apps)
    }

    /// A core serving an explicit registry — the seam the tests use to
    /// serve cheap fixture apps instead of the standard three.
    pub fn with_apps(
        cache: CertCache,
        tel: Telemetry,
        threads: usize,
        apps: Vec<Arc<AppPipeline>>,
    ) -> ServeCore {
        ServeCore {
            cache,
            tel,
            apps: apps.into_iter().map(|a| (a.slug.clone(), a)).collect(),
            threads: threads.max(1),
            heartbeat: 0,
        }
    }

    /// Enable FPS heartbeats every `cycles` simulated cycles (0
    /// disables; heartbeats are routed to per-node matrix-view lanes).
    pub fn with_heartbeat(mut self, cycles: u64) -> ServeCore {
        self.heartbeat = cycles;
        self
    }

    /// The registry the core's cache and scheduler account to.
    pub fn metrics(&self) -> &Metrics {
        self.cache.metrics()
    }

    /// The slugs this core can verify.
    pub fn app_slugs(&self) -> Vec<&str> {
        let mut slugs: Vec<&str> = self.apps.keys().map(String::as_str).collect();
        slugs.sort_unstable();
        slugs
    }

    /// Execute a batch of verify requests and return one frame per
    /// request, in request order: a `result` frame with the composed
    /// certificate, or an `error` frame carrying the failing stage's
    /// `[stage]`-prefixed message.
    pub fn run_batch(&self, reqs: &[VerifyRequest]) -> Vec<Json> {
        let requests_total = |outcome: &str| {
            self.metrics().counter_with("serve_requests_total", &[("outcome", outcome)]).inc();
        };
        // Resolve each request against the registry; a rejected request
        // gets its error frame now and never reaches the scheduler.
        let mut rejected: HashMap<usize, String> = HashMap::new();
        let mut pipelines: HashMap<String, Pipeline> = HashMap::new();
        for (i, req) in reqs.iter().enumerate() {
            if !self.apps.contains_key(&req.app) {
                rejected.insert(
                    i,
                    format!("unknown app {:?} (known: {:?})", req.app, self.app_slugs()),
                );
                continue;
            }
            if !pipelines.contains_key(&req.tenant) {
                match self.cache.namespaced(&req.tenant) {
                    Ok(cache) => {
                        pipelines
                            .insert(req.tenant.clone(), Pipeline::new(cache, self.tel.clone()));
                    }
                    Err(e) => {
                        rejected.insert(i, e);
                        continue;
                    }
                }
            }
        }

        // One cell per accepted request, planned into one graph: cells
        // sharing a (tenant, app) share its nodes. FPS heartbeats carry
        // the request's 1-based position as their lane.
        let cells: Vec<Cell<'_>> = reqs
            .iter()
            .enumerate()
            .filter(|(i, _)| !rejected.contains_key(i))
            .map(|(i, req)| Cell {
                pipeline: &pipelines[&req.tenant],
                app: &self.apps[&req.app],
                cpu: req.cpu,
                opt: req.opt,
                stages: req.mode.stages(),
                obs: FpsObserver {
                    telemetry: self.tel.clone(),
                    heartbeat_cycles: self.heartbeat,
                    cell: i as u64 + 1,
                },
            })
            .collect();
        let mut results = run_cells(self.threads, &cells).into_iter();

        reqs.iter()
            .enumerate()
            .map(|(i, req)| {
                if let Some(e) = rejected.get(&i) {
                    requests_total("rejected");
                    return error_frame(Some(&req.id), e);
                }
                let report = match results.next().expect("one result per accepted request") {
                    Ok(report) => report,
                    Err(e) => {
                        requests_total("failed");
                        return error_frame(Some(&req.id), &e);
                    }
                };
                requests_total("ok");
                Json::obj([
                    ("frame", Json::str("result")),
                    ("id", Json::str(&req.id)),
                    ("tenant", Json::str(&req.tenant)),
                    ("app", Json::str(&req.app)),
                    ("cpu", Json::str(req.cpu.to_string())),
                    ("opt", Json::str(req.opt.to_string())),
                    ("mode", Json::str(req.mode.as_str())),
                    ("cached", Json::Bool(report.fully_cached())),
                    (
                        "stages",
                        Json::Arr(
                            report
                                .stages
                                .iter()
                                .map(|o| {
                                    Json::obj([
                                        ("stage", Json::str(o.certificate.stage.as_str())),
                                        ("cache_hit", Json::Bool(o.cache_hit)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("composed", report.composed.to_json()),
                ])
            })
            .collect()
    }
}
