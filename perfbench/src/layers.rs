//! Per-layer accounting for the traced run.
//!
//! Two sources feed it, and neither adds instrumentation to the
//! program: spans the benchmark records around the public calls it
//! makes ([`Tracer`]), and run deltas of the `Metrics` families the
//! program already keeps ([`Delta`]). Stage busy time comes from the
//! `StageOutcome`s the public stage calls return ([`StageTimes`]), so a
//! cell that waits on its sibling's single-flight is not counted twice.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use parfait_pipeline::{StageKind, StageOutcome};
use parfait_telemetry::json::Json;
use parfait_telemetry::metrics::{MetricKey, MetricsSnapshot};

/// Summed differences between `Metrics` snapshots taken around traced
/// rounds (counters and histogram count/sum; gauges are not deltas).
#[derive(Default)]
pub struct Delta {
    counters: BTreeMap<MetricKey, u64>,
    hists: BTreeMap<MetricKey, (u64, u64)>,
}

impl Delta {
    pub fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for (key, v) in &after.counters {
            let was = before.counter(&key.name, &labels(key)).unwrap_or(0);
            *self.counters.entry(key.clone()).or_default() += v.saturating_sub(was);
        }
        for (key, h) in &after.hists {
            let (c0, s0) =
                before.hist(&key.name, &labels(key)).map_or((0, 0), |h| (h.count, h.sum));
            let e = self.hists.entry(key.clone()).or_default();
            e.0 += h.count.saturating_sub(c0);
            e.1 += h.sum.saturating_sub(s0);
        }
    }

    /// Sum of counter `name` over every label set containing `with`.
    pub fn counter(&self, name: &str, with: &[(&str, &str)]) -> f64 {
        self.counters.iter().filter(|(k, _)| matches(k, name, with)).map(|(_, v)| *v as f64).sum()
    }

    /// Sum of histogram `name`'s observations over label sets
    /// containing `with`.
    pub fn hist_sum(&self, name: &str, with: &[(&str, &str)]) -> f64 {
        self.hists.iter().filter(|(k, _)| matches(k, name, with)).map(|(_, v)| v.1 as f64).sum()
    }

    /// Observation count of histogram `name` over matching label sets.
    pub fn hist_count(&self, name: &str, with: &[(&str, &str)]) -> f64 {
        self.hists.iter().filter(|(k, _)| matches(k, name, with)).map(|(_, v)| v.0 as f64).sum()
    }
}

fn labels(key: &MetricKey) -> Vec<(&str, &str)> {
    key.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
}

fn matches(key: &MetricKey, name: &str, with: &[(&str, &str)]) -> bool {
    key.name == name && with.iter().all(|(k, v)| key.labels.iter().any(|(a, b)| a == k && b == v))
}

/// Stage time split into runs (the stage computed) and hits (a cache
/// lookup, or a wait on another thread's in-flight computation).
#[derive(Default)]
pub struct StageTimes {
    run_us: [f64; StageKind::ALL.len()],
    hit_us: [f64; StageKind::ALL.len()],
    fps_cpu_us: f64,
}

impl StageTimes {
    pub fn add_outcome(&mut self, o: &StageOutcome) {
        let i = o.certificate.stage.index();
        let us = o.wall.as_secs_f64() * 1e6;
        if o.cache_hit {
            self.hit_us[i] += us;
        } else {
            self.run_us[i] += us;
        }
        if let Some(report) = &o.fps {
            self.fps_cpu_us += report.cpu.as_secs_f64() * 1e6;
        }
    }

    /// Book every stage call in `delta` as a hit: for runs whose every
    /// request was checked to be fully cached.
    pub fn add_all_hits(&mut self, delta: &Delta) {
        for stage in StageKind::ALL {
            self.hit_us[stage.index()] +=
                delta.hist_sum("pipeline_stage_wall_us", &[("stage", stage.as_str())]);
        }
    }

    pub fn run_ms(&self, stage: StageKind) -> f64 {
        self.run_us[stage.index()] / 1e3
    }
}

/// One finished span: a named interval around a public call, with the
/// op it belongs to and the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span store, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Record a finished span; the returned id is what children cite
    /// as their parent.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span { name, op, parent, start_us: us(start), end_us: us(end) });
        spans.len() - 1
    }

    /// Total duration of spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().filter(|s| s.name == name).map(|s| s.end_us - s.start_us).sum::<f64>() / 1e3
    }

    /// Self time of spans named `name`: their duration minus the part
    /// covered by their direct children, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut total = 0.0;
        for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            let mut kids: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| (c.start_us, c.end_us))
                .collect();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start_us);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total += (s.end_us - s.start_us) - covered;
        }
        total / 1e3
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(id as i64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as i64))),
                ("op", Json::Int(s.op as i64)),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
            ]);
            text.push_str(&line.to_string());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything the traced rounds of one run measured.
pub struct Traced<'a> {
    pub delta: &'a Delta,
    pub stages: &'a StageTimes,
    pub tracer: &'a Tracer,
    /// Ops in the traced rounds.
    pub ops: usize,
    /// Mean op latency of the traced rounds, ms.
    pub op_mean_ms: f64,
    /// Median op latency of the traced and the untraced rounds, ms.
    pub traced_p50_ms: f64,
    pub untraced_p50_ms: f64,
    /// FPS busy time per op with one FPS thread (hw-sweep only), ms.
    pub fps_1t_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, as per-op means over the traced rounds.
/// Layers a workload does not exercise read 0.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let d = t.delta;
    let n = t.ops.max(1) as f64;
    let per_op = |v: f64| v / n;
    let key_us = |stages: &[StageKind]| -> f64 {
        stages
            .iter()
            .map(|s| d.hist_sum("pipeline_artifact_hash_us", &[("stage", s.as_str())]))
            .sum()
    };
    use StageKind::*;
    let lint_ms = per_op(t.stages.run_ms(CtCheck));
    let bound_ms = per_op(t.stages.run_ms(Bound));
    let equivalence_ms = per_op(t.stages.run_ms(Equivalence));
    let lockstep_ms = per_op(t.stages.run_ms(Lockstep));
    let contract_ms = per_op(t.stages.run_ms(Contract));
    let fps_ms = per_op(t.stages.run_ms(Fps));
    let littlec_key_ms = per_op(key_us(&[CtCheck, Bound]) / 1e3);
    let key_hash_ms = per_op(key_us(&[SpecCheck, Lockstep, Equivalence, Contract, Fps]) / 1e3);
    let hit_ms = per_op(t.stages.hit_us.iter().sum::<f64>() / 1e3);
    let cycles = d.counter("fps_cycles_total", &[]);
    let spec_hits = d.counter("spec_step_memo_total", &[("outcome", "hit")]);
    let spec_lookups = spec_hits + d.counter("spec_step_memo_total", &[("outcome", "miss")]);
    let decode_hits = d.counter("decode_cache_hit", &[]);
    let decode_lookups = decode_hits + d.counter("decode_cache_miss", &[]);
    let fw_hits = d.counter("pipeline_firmware_builds_total", &[("outcome", "hit")]);
    let fw_builds = fw_hits + d.counter("pipeline_firmware_builds_total", &[("outcome", "miss")]);
    let cache_hits = d.counter("certcache_memory_hit", &[])
        + d.counter("certcache_disk_hit", &[])
        + d.counter("certcache_singleflight_wait", &[]);
    let misses = d.counter("certcache_miss", &[]);
    let session_ms = per_op(t.tracer.total_ms("serve.session"));
    let stage_wall_ms = d.hist_sum("pipeline_stage_wall_us", &[]) / 1e3;
    let sched_self_ms = if session_ms > 0.0 {
        session_ms - per_op(stage_wall_ms + key_us(&StageKind::ALL) / 1e3)
    } else {
        0.0
    };
    let apps_build_ms = per_op(t.tracer.total_ms("apps.build"));
    let share = |ms: f64| 100.0 * ratio(ms, t.op_mean_ms);
    vec![
        ("analyzer.lint_ms", lint_ms, "ms"),
        (
            "analyzer.lint_iters",
            per_op(d.counter("analyzer_fixpoint_iterations_total", &[])),
            "count",
        ),
        ("analyzer.lint_memo_hits", per_op(d.counter("analyzer_memo_hits_total", &[])), "count"),
        ("analyzer.fn_lint_ms", per_op(d.hist_sum("analyzer_fn_lint_us", &[]) / 1e3), "ms"),
        ("analyzer.fn_lints", per_op(d.hist_count("analyzer_fn_lint_us", &[])), "count"),
        ("analyzer.bound_ms", bound_ms, "ms"),
        ("littlec.key_ms", littlec_key_ms, "ms"),
        ("littlec.equivalence_ms", equivalence_ms, "ms"),
        ("starling.lockstep_ms", lockstep_ms, "ms"),
        ("cores.contract_ms", contract_ms, "ms"),
        ("knox2.fps_ms", fps_ms, "ms"),
        ("knox2.fps_cpu_ms", per_op(t.stages.fps_cpu_us / 1e3), "ms"),
        ("knox2.fps_1t_ms", t.fps_1t_ms, "ms"),
        ("knox2.cycles", per_op(cycles), "count"),
        ("knox2.mcycles_per_s", ratio(per_op(cycles) / 1e6, fps_ms / 1e3), "Mcycles/s"),
        ("knox2.segments", per_op(d.counter("fps_segments_checked_total", &[])), "count"),
        ("knox2.spec_memo_hit_ratio", ratio(spec_hits, spec_lookups), "ratio"),
        ("knox2.spec_memo_lookups", per_op(spec_lookups), "count"),
        ("riscv.decode_hit_ratio", ratio(decode_hits, decode_lookups), "ratio"),
        ("riscv.decode_lookups", per_op(decode_lookups), "count"),
        ("pipeline.key_hash_ms", key_hash_ms, "ms"),
        ("pipeline.firmware_build_hit_ratio", ratio(fw_hits, fw_builds), "ratio"),
        ("pipeline.firmware_builds", per_op(fw_builds), "count"),
        ("apps.build_ms", apps_build_ms, "ms"),
        ("cache.lookups", per_op(cache_hits + misses), "count"),
        ("cache.hit_ratio", ratio(cache_hits, cache_hits + misses), "ratio"),
        ("cache.misses", per_op(misses), "count"),
        ("cache.writes", per_op(d.counter("certcache_write", &[])), "count"),
        (
            "cache.singleflight_waits",
            per_op(d.counter("certcache_singleflight_wait", &[])),
            "count",
        ),
        ("cache.hit_ms", hit_ms, "ms"),
        ("serve.session_ms", session_ms, "ms"),
        ("serve.sched_self_ms", sched_self_ms, "ms"),
        ("serve.nodes", per_op(d.counter("serve_nodes_total", &[])), "count"),
        ("parallel.tasks", per_op(d.counter("pool_tasks_spawned_total", &[])), "count"),
        ("parallel.steals", per_op(d.counter("pool_steals_total", &[])), "count"),
        ("parallel.busy_ms", per_op(d.counter("pool_worker_busy_ns", &[]) / 1e6), "ms"),
        ("parallel.idle_ms", per_op(d.counter("pool_worker_idle_ns", &[]) / 1e6), "ms"),
        ("bench.op_self_ms", per_op(t.tracer.self_ms("op")), "ms"),
        ("op.mean_ms", t.op_mean_ms, "ms"),
        ("trace.overhead_pct", 100.0 * (ratio(t.traced_p50_ms, t.untraced_p50_ms) - 1.0), "%"),
        ("share.analyzer_lint_pct", share(lint_ms), "%"),
        ("share.analyzer_bound_pct", share(bound_ms), "%"),
        ("share.littlec_key_pct", share(littlec_key_ms), "%"),
        ("share.littlec_equivalence_pct", share(equivalence_ms), "%"),
        ("share.starling_lockstep_pct", share(lockstep_ms), "%"),
        ("share.knox2_fps_pct", share(fps_ms), "%"),
        ("share.pipeline_key_hash_pct", share(key_hash_ms), "%"),
        ("share.apps_build_pct", share(apps_build_ms), "%"),
        ("share.cache_hit_pct", share(hit_ms), "%"),
        ("share.serve_sched_self_pct", share(sched_self_ms), "%"),
    ]
}
