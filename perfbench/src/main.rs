//! perfbench — the repository benchmark.
//!
//! Drives three closed-loop workloads in-process through the public
//! APIs users call, one workload per process:
//!
//! - `edit-loop`: the developer's inner loop. Each op applies a seeded,
//!   behaviour-preserving edit to one function of the password hasher
//!   and re-verifies it at -O2 on both cores (`Pipeline::verify_matrix`).
//! - `serve-warm`: the daemon's steady state. Two clients, one per
//!   tenant, send single-request sessions to one warm `ServeCore`
//!   (`serve::server::handle_session`).
//! - `hw-sweep`: the hardware engineer's loop. Each op re-verifies the
//!   hardware side (contract → bound → FPS) of all twelve hasher/totp
//!   cells on an empty memo-only cache.
//!
//! Every run generates its inputs from `--seed`, fills its caches and
//! the process-wide memos in an untimed setup, then times a fixed
//! number of whole rounds of a seeded op list. `setup_s` is the median
//! of several setups, each the first of a fresh process (see
//! [`setup_in_child`]). End-to-end times are reported at a reference host
//! speed (see [`host`]). `--trace 1` alternates untraced and traced
//! rounds: the traced ones give the per-layer numbers, the pair gives
//! the tracing overhead.
//!
//! ```sh
//! python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 15 --trace 0
//! ```

mod edit_loop;
mod gen;
mod host;
mod hw_sweep;
mod layers;
mod serve_warm;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use parfait_telemetry::json::Json;
use parfait_telemetry::metrics::{Metrics, MetricsSnapshot};

use host::{Host, CAL_REF_MS};
use layers::{Delta, Metric, StageTimes, Traced, Tracer};

/// The settings every workload runs under.
pub struct Ctx {
    pub seed: u64,
    /// Whole rounds to time (even in trace mode: untraced, traced, ...).
    pub rounds: usize,
    pub trace: bool,
    /// This run's private scratch directory (cache roots).
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }

    /// A directory under the run's own (fresh) scratch directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }
}

/// One timed op.
pub struct Sample {
    /// Measured wall time.
    pub ms: f64,
    /// Host-speed factor of the interval the op ran in.
    pub factor: f64,
    pub ok: bool,
    pub traced: bool,
}

impl Sample {
    fn norm_ms(&self) -> f64 {
        self.ms * self.factor
    }
}

/// What a workload hands back to the harness.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds and host-speed factor of each setup.
    pub setup: Vec<(f64, f64)>,
    pub samples: Vec<Sample>,
    /// Timed wall seconds of the untraced rounds, at the reference
    /// host speed.
    pub untraced_wall_s: f64,
    /// The first failure messages (ops that erred or failed a check).
    pub failures: Vec<String>,
    /// Per-layer accounting over the traced rounds.
    pub delta: Delta,
    pub stages: StageTimes,
    pub fps_1t_ms: f64,
    pub thread_budget: String,
    pub host: Host,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Snapshot the process-wide registry every layer accounts to.
pub fn snapshot() -> MetricsSnapshot {
    Metrics::global().snapshot()
}

#[derive(Clone, Copy)]
enum Workload {
    EditLoop,
    ServeWarm,
    HwSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "edit-loop" => Some(Workload::EditLoop),
            "serve-warm" => Some(Workload::ServeWarm),
            "hw-sweep" => Some(Workload::HwSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EditLoop => "edit-loop",
            Workload::ServeWarm => "serve-warm",
            Workload::HwSweep => "hw-sweep",
        }
    }

    /// Setups per run: three, or nine where one setup is short enough
    /// (~0.6 s) for its own noise to dominate the median of three.
    fn setup_reps(self) -> usize {
        match self {
            Workload::HwSweep => 9,
            Workload::EditLoop | Workload::ServeWarm => 3,
        }
    }

    /// Whole rounds to time: `seconds` over the nominal wall time of a
    /// round on the reference machine, so that runs with equal
    /// `--seconds` do identical work, and at least the workload's
    /// minimum. Trace mode needs an even count (untraced, traced, ...).
    fn rounds(self, seconds: f64, trace: bool) -> usize {
        let (nominal_s, min) = match self {
            Workload::EditLoop => (edit_loop::NOMINAL_ROUND_S, edit_loop::MIN_ROUNDS),
            Workload::ServeWarm => (serve_warm::NOMINAL_ROUND_S, 1),
            Workload::HwSweep => (hw_sweep::NOMINAL_ROUND_S, 1),
        };
        let rounds = ((seconds / nominal_s).round() as usize).max(min);
        if trace {
            rounds.max(2).next_multiple_of(2)
        } else {
            rounds
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    revision: String,
    /// Run only the setup and print its time (see [`setup_in_child`]).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut revision = "unknown".to_string();
    let mut setup_only = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} out of range (0, 3600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                })
            }
            "--revision" => revision = value,
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (edit-loop|serve-warm|hw-sweep)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        revision,
        setup_only,
    })
}

/// A structured error on stderr; no result line is printed.
fn refuse(kind: &str, detail: Json) -> ExitCode {
    let err = Json::obj([("error", Json::str(kind)), ("detail", detail)]);
    eprintln!("{err}");
    ExitCode::from(2)
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, times at the reference
/// host speed. Where no percentile above p50 has ten samples beyond it
/// (fewer than 40 ops), `op_tail_ms` repeats `op_p50_ms`.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let ms: Vec<f64> = out.samples.iter().map(Sample::norm_ms).collect();
    let p50 = stats::median(&ms);
    let tail = stats::tail_percentile(ms.len()).map_or(p50, |p| stats::percentile(&ms, p));
    let ok_ops = out.samples.iter().filter(|s| s.ok).count();
    let setup: Vec<f64> = out.setup.iter().map(|(s, f)| s * f).collect();
    vec![
        ("op_p50_ms", p50, "ms"),
        ("op_tail_ms", tail, "ms"),
        ("ops_per_s", ok_ops as f64 / out.untraced_wall_s.max(1e-9), "1/s"),
        ("setup_s", stats::median(&setup), "s"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ]
}

/// One more setup of `args.workload`, run as the only work of a fresh
/// process of this benchmark: only a process's first setup pays the
/// warm-up of the process-wide memos (firmware builds and their spec
/// step memos, decode caches), which `setup_s` counts. Returns the
/// setup's wall seconds and host-speed factor.
fn setup_in_child(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("setup process: {e}"))?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &seed, "--seconds", "1"])
        .args(["--setup-only", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup process: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup process: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let result = parfait_telemetry::json::parse(line)
        .map_err(|e| format!("setup process: {e} in {line:?}"))?;
    let num = |key| {
        result.get(key).and_then(Json::as_f64).ok_or_else(|| format!("setup process: {line:?}"))
    };
    Ok((num("setup_s")?, num("factor")?))
}

/// Removes the run's scratch directory when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    // The PARFAIT_* knobs change the program's work (threads, segment
    // size, timeouts, decode cache, cache directory); the workloads fix
    // their own, so a set knob would silently change what is measured.
    let knobs: Vec<Json> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PARFAIT_"))
        .map(Json::str)
        .collect();
    if !knobs.is_empty() {
        return refuse("parfait-knobs-set", Json::Arr(knobs));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return refuse("usage", Json::str(e)),
    };

    let out_dir = Path::new("perfbench").join("out");
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let scratch = Scratch(out_dir.join(format!("run-{}-{nanos}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        return refuse("scratch-dir", Json::str(format!("{}: {e}", scratch.0.display())));
    }

    let rounds = if args.setup_only { 0 } else { args.workload.rounds(args.seconds, args.trace) };
    let ctx = Ctx { seed: args.seed, rounds, trace: args.trace, scratch: scratch.0.clone() };
    let tracer = Tracer::new();
    let started = Instant::now();
    // The other setups run first, while this process holds nothing.
    let reps = if args.setup_only { 1 } else { args.workload.setup_reps() };
    let children: Vec<_> = (1..reps).map(|_| setup_in_child(&args)).collect();
    let mut out = match args.workload {
        Workload::EditLoop => edit_loop::run(&ctx, &tracer),
        Workload::ServeWarm => serve_warm::run(&ctx, &tracer),
        Workload::HwSweep => hw_sweep::run(&ctx, &tracer),
    };
    let elapsed_s = started.elapsed().as_secs_f64();
    for child in children {
        match child {
            Ok(setup) => out.setup.push(setup),
            Err(e) => out.fail(e),
        }
    }

    if let Err(e) = out.host.check() {
        out.fail(e);
    }
    if args.setup_only {
        return match (out.setup.as_slice(), out.failures.is_empty()) {
            ([(s, factor)], true) => {
                let setup = [("setup_s", Json::Num(*s)), ("factor", Json::Num(*factor))];
                println!("{}", Json::obj(setup));
                ExitCode::SUCCESS
            }
            _ => refuse("setup-failed", Json::Arr(out.failures.iter().map(Json::str).collect())),
        };
    }
    let pick = |traced: bool, f: fn(&Sample) -> f64| -> Vec<f64> {
        out.samples.iter().filter(|s| s.traced == traced).map(f).collect()
    };
    let untraced = pick(false, Sample::norm_ms);
    let traced = pick(true, Sample::norm_ms);
    let attempted = out.samples.len();
    let failed = out.samples.iter().filter(|s| !s.ok).count();
    let setup_ok = out.setup.len() == reps;
    let correct = setup_ok && failed == 0 && attempted > 0 && out.failures.is_empty();
    let tail_p = stats::tail_percentile(untraced.len());
    let p50 = stats::median(&untraced);
    let setup_s: Vec<f64> = out.setup.iter().map(|(s, f)| s * f).collect();

    let metrics: Vec<Metric> = if args.trace {
        if let Err(e) = tracer.write(&out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ))) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        layers::per_layer(&Traced {
            delta: &out.delta,
            stages: &out.stages,
            tracer: &tracer,
            ops: traced.len(),
            op_mean_ms: {
                let raw = pick(true, |s| s.ms);
                raw.iter().sum::<f64>() / raw.len().max(1) as f64
            },
            traced_p50_ms: stats::median(&traced),
            untraced_p50_ms: p50,
            fps_1t_ms: out.fps_1t_ms,
        })
    } else {
        end_to_end(&out)
    };

    let provenance = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("rounds", Json::Int(rounds as i64)),
        ("ops_untraced", Json::Int(untraced.len() as i64)),
        ("ops_traced", Json::Int(traced.len() as i64)),
        ("tail_percentile", tail_p.map_or(Json::Null, Json::Num)),
        ("setup_reps_s", Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect())),
        ("raw_setup_reps_s", Json::Arr(out.setup.iter().map(|&(s, _)| Json::Num(s)).collect())),
        ("raw_op_p50_ms", Json::Num(stats::median(&pick(false, |s| s.ms)))),
        ("host_speed", Json::Num(CAL_REF_MS / stats::median(&out.host.cal_ms))),
        ("calibrations", Json::Int(out.host.cal_ms.len() as i64)),
        ("background_cpu_share", Json::Num(out.host.background_share())),
        ("elapsed_s", Json::Num(elapsed_s)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
        ("revision", Json::str(&args.revision)),
        ("build_profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("thread_budget", Json::str(&out.thread_budget)),
        ("failures", Json::Arr(out.failures.iter().map(Json::str).collect())),
    ]);
    println!("{}", Json::obj([("provenance", provenance)]));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(if attempted == 0 { 1 } else { failed } as i64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.
                (name, Json::obj([("value", Json::Num(value + 0.0)), ("unit", Json::str(unit))]))
            })),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must list exactly the metrics the runs print.
    #[test]
    fn manifest_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = parfait_telemetry::json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            let metrics = manifest.get(key).and_then(Json::as_array).expect(key);
            metrics.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
        };
        let printed = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics.into_iter().map(|(n, _, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), printed(end_to_end(&Outcome::default())));
        let tracer = Tracer::new();
        let traced = Traced {
            delta: &Delta::default(),
            stages: &StageTimes::default(),
            tracer: &tracer,
            ops: 0,
            op_mean_ms: 0.0,
            traced_p50_ms: 0.0,
            untraced_p50_ms: 0.0,
            fps_1t_ms: 0.0,
        };
        assert_eq!(listed("per_layer"), printed(layers::per_layer(&traced)));
    }
}
