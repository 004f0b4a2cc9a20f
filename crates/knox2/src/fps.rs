//! The functional-physical simulation checker.
//!
//! IPR at the circuit level demands that the real world (the SoC with
//! its secret persistent state) and the ideal world (the emulator's
//! dummy-state SoC with query access to the spec) are observationally
//! equivalent *at the wire level, at every cycle*. The checker drives
//! both circuits with identical inputs — a script mixing well-formed
//! driver commands, adversarial garbage, and idle time — and compares
//! the output wires cycle by cycle. Any difference in data **or
//! timing** is a counterexample: correctness bugs, I/O protocol bugs,
//! compiler-introduced timing leaks, and hardware-level variable-latency
//! leaks all surface here (paper §7.2's bug catalog).
//!
//! In addition the checker validates the fig. 9 refinement relation at
//! quiescent points (the active FRAM slot must equal the ideal spec
//! state) and requires the taint tracker to be silent (no secret data
//! reaching branch conditions, memory addresses, jump targets, or
//! variable-latency functional units).
//!
//! The two worlds run the same firmware on the same inputs and differ
//! only in data, so the checker steps them as one product world — one
//! control over paired data — while their control agrees, and unzips
//! them into two SoCs stepped apart from the first cycle it would not
//! (DESIGN.md §8).

use std::time::{Duration, Instant};

use parfait_riscv::model::AsmStateMachine;
use parfait_rtl::{Circuit, Pair, RingTrace, WireIn, WireOut};
use parfait_soc::Soc;
use parfait_telemetry::Telemetry;

use crate::emulator::CircuitEmulator;

/// A whole-command byte-level specification machine — the assembly
/// level of abstraction, which serves as the spec for hardware
/// verification (§5.3).
pub trait ByteSpec {
    /// One whole-command step.
    fn step(&self, state: &[u8], cmd: &[u8]) -> (Vec<u8>, Vec<u8>);

    /// Drain the (hits, misses) counters of any internal whole-command
    /// memo, so the checker can flush them into the metrics registry.
    /// Specs without a memo report nothing.
    fn take_memo_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl ByteSpec for AsmStateMachine {
    fn step(&self, state: &[u8], cmd: &[u8]) -> (Vec<u8>, Vec<u8>) {
        AsmStateMachine::step(self, state, cmd)
            .unwrap_or_else(|e| panic!("assembly-level spec failed: {e}"))
    }

    fn take_memo_stats(&self) -> (u64, u64) {
        AsmStateMachine::take_memo_stats(self)
    }
}

/// One operation of the adversarial host script.
#[derive(Clone, Debug)]
pub enum HostOp {
    /// A well-formed command: send all bytes, then read the response.
    Command(Vec<u8>),
    /// Raw bytes pushed at the device (possibly a partial or malformed
    /// command); no response is read.
    Garbage(Vec<u8>),
    /// Idle cycles with no host activity.
    Idle(u64),
}

/// Configuration of an FPS run.
#[derive(Clone, Debug)]
pub struct FpsConfig {
    /// Command size (the device consumes input in these units).
    pub command_size: usize,
    /// Response size (bytes produced per completed command).
    pub response_size: usize,
    /// Per-byte handshake timeout in cycles.
    pub timeout: u64,
    /// Size of the encoded application state (for the refinement check).
    pub state_size: usize,
}

impl FpsConfig {
    /// The last-resort per-byte handshake timeout, used only when no
    /// certified cycle bound is available (e.g. the uncached scaling
    /// benchmarks, which run FPS without the pipeline): generous enough
    /// for the slowest operation in the evaluation (a full ECDSA
    /// signature on the multi-cycle PicoRV32) with an order of
    /// magnitude to spare. Pipeline runs derive their timeout from the
    /// `bound` stage's certified WCET instead — see
    /// [`Self::resolve_timeout`].
    pub const BASE_TIMEOUT: u64 = 8_000_000_000;

    /// Parse a `PARFAIT_TIMEOUT` value (cycles; `_` separators
    /// allowed). `None` — the variable is unset — yields
    /// [`Self::BASE_TIMEOUT`]. The grammar and error message live in
    /// [`parfait_telemetry::env`] with the other knobs.
    pub fn parse_timeout(raw: Option<&str>) -> Result<u64, String> {
        Ok(parfait_telemetry::env::parse_timeout(raw)?.unwrap_or(Self::BASE_TIMEOUT))
    }

    /// The per-byte handshake timeout a certified worst-case cycle
    /// bound justifies: the host never waits longer than one full
    /// command computation between handshake steps, so twice the WCET
    /// plus a fixed I/O slack can only fire on a genuinely hung (or
    /// non-terminating, or mis-certified) device.
    pub fn timeout_from_wcet(wcet_cycles: u64) -> u64 {
        wcet_cycles.saturating_mul(2).saturating_add(4096)
    }

    /// Resolve the FPS handshake timeout, in precedence order:
    ///
    /// 1. `PARFAIT_TIMEOUT` — an explicit operator override; a
    ///    malformed value is a hard error (stderr + exit 2, matching
    ///    the bench binaries' `--threads`/`--json` style), because
    ///    exiting loudly beats a multi-hour verification run with a
    ///    silently wrong timeout;
    /// 2. the certified worst-case cycle bound, when the caller has one
    ///    (via [`Self::timeout_from_wcet`]);
    /// 3. [`Self::BASE_TIMEOUT`].
    pub fn resolve_timeout(derived_wcet: Option<u64>) -> u64 {
        let raw = std::env::var_os("PARFAIT_TIMEOUT").map(|v| v.to_string_lossy().into_owned());
        match parfait_telemetry::env::parse_timeout(raw.as_deref()) {
            Ok(Some(n)) => n,
            Ok(None) => derived_wcet.map(Self::timeout_from_wcet).unwrap_or(Self::BASE_TIMEOUT),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// [`Self::resolve_timeout`] without a certified bound.
    pub fn default_timeout() -> u64 {
        Self::resolve_timeout(None)
    }
}

/// Where the two worlds diverged, or another failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FpsError {
    /// Wire outputs differed at a cycle.
    TraceDivergence {
        /// Cycle index (since the start of the run).
        cycle: u64,
        /// Script operation being executed.
        op_index: usize,
        /// Real-world output wires.
        real: (bool, bool, u8),
        /// Ideal-world output wires.
        ideal: (bool, bool, u8),
        /// Program counter of the real core at the divergence — the
        /// paper's §8.1 debugging aid ("Knox2 can print out
        /// user-requested debugging information such as the program
        /// counter"); look this address up in the assembly listing to
        /// find the non-constant-time code.
        real_pc: u32,
        /// Program counter of the emulator's core at the divergence.
        ideal_pc: u32,
    },
    /// A circuit faulted (illegal instruction, bus error, ...).
    Fault {
        /// Which world faulted.
        world: &'static str,
        /// Description.
        detail: String,
    },
    /// The host timed out (device hung — itself a timing divergence if
    /// only one world hangs, but reported distinctly when both do).
    Timeout {
        /// Operation index.
        op_index: usize,
    },
    /// The refinement relation of fig. 9 failed at a quiescent point.
    RefinementViolation {
        /// Operation index.
        op_index: usize,
        /// Active state read from the real device's FRAM.
        real_state: Vec<u8>,
        /// Ideal-world spec state.
        spec_state: Vec<u8>,
    },
    /// Secret data reached processor control state (taint report).
    Leak {
        /// Human-readable leak events.
        events: Vec<String>,
    },
    /// The wire-level response bytes differ from the spec's response —
    /// the I/O path mis-encodes (paper §7.2: "I/O code bug in system
    /// software").
    ResponseMismatch {
        /// Which completed command (0-based).
        command_index: usize,
        /// Bytes observed on the wire.
        wire: Vec<u8>,
        /// Bytes the specification produced.
        spec: Vec<u8>,
    },
}

impl std::fmt::Display for FpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpsError::TraceDivergence { cycle, op_index, real, ideal, real_pc, ideal_pc } => {
                write!(
                    f,
                    "wire traces diverge at cycle {cycle} (op {op_index}): real={real:?} \
                     ideal={ideal:?}; real pc={real_pc:#010x} ideal pc={ideal_pc:#010x} — \
                     check the assembly listing around these addresses"
                )
            }
            FpsError::Fault { world, detail } => write!(f, "{world} circuit fault: {detail}"),
            FpsError::Timeout { op_index } => write!(f, "host timeout at op {op_index}"),
            FpsError::RefinementViolation { op_index, .. } => {
                write!(f, "refinement relation violated after op {op_index}")
            }
            FpsError::Leak { events } => {
                write!(f, "secret data reached control state: {}", events.join("; "))
            }
            FpsError::ResponseMismatch { command_index, wire, spec } => write!(
                f,
                "response {command_index} differs from the spec: wire={wire:02x?} spec={spec:02x?}"
            ),
        }
    }
}

impl std::error::Error for FpsError {}

/// Statistics of a successful FPS run (Table 4's measurements).
#[derive(Clone, Debug, Default)]
pub struct FpsReport {
    /// Simulated cycles (both worlds advance together).
    pub cycles: u64,
    /// Wall-clock time of the check.
    pub wall: Duration,
    /// Busy time of the check. One check runs on one thread, so this
    /// always equals `wall`.
    pub cpu: Duration,
    /// Commands verified.
    pub commands: usize,
    /// Spec queries the emulator made.
    pub spec_queries: u64,
}

impl FpsReport {
    /// Simulated circuit cycles per wall-clock second.
    pub fn cycles_per_second(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Observability hooks for an FPS run: a telemetry handle plus the
/// heartbeat cadence. The default observer is disabled and adds no
/// work on the per-cycle hot path.
#[derive(Clone, Debug, Default)]
pub struct FpsObserver {
    /// Destination for spans and heartbeats.
    pub telemetry: Telemetry,
    /// Emit an `fps.heartbeat` progress event every this many simulated
    /// cycles (0 disables heartbeats).
    pub heartbeat_cycles: u64,
    /// Matrix-cell lane id carried by every heartbeat (and labeling the
    /// `fps_cycles_per_second` gauge), so a progress view can route
    /// concurrent cells to their own display lanes. 0 when unused.
    pub cell: u64,
}

/// An FPS failure together with the statistics accumulated up to the
/// failure, so a run that times out after millions of cycles still
/// reports how far it got and at what simulation rate.
#[derive(Debug)]
pub struct FpsFailure {
    /// What went wrong.
    pub error: FpsError,
    /// Cycles, wall time, commands, and spec queries up to the failure.
    pub partial: FpsReport,
}

impl std::fmt::Display for FpsFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (after {} cycles, {} commands, {:.1?})",
            self.error, self.partial.cycles, self.partial.commands, self.partial.wall
        )
    }
}

impl std::error::Error for FpsFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The lock-stepped pair of circuits. Every cycle's comparison needs
/// both worlds' state after the previous cycle, so one check is one
/// sequential chain.
///
/// While the worlds' control agrees they run zipped, as one product
/// SoC (`product`), and `real` and `emu.soc` hold no memories. At the
/// first cycle it would not, the product unzips into the two SoCs as
/// they were at that cycle's start, and the rest of the run steps them
/// apart.
struct Dual<'a, 's> {
    real: &'a mut Soc,
    emu: &'a mut CircuitEmulator<'s>,
    /// Both worlds as one product SoC, while zipped.
    product: Option<Soc<Pair>>,
    /// Whether the worlds may be zipped: false once they split, and
    /// throughout an oracle run.
    zip: bool,
    /// Whether any cycle of this run stepped the worlds apart.
    apart: bool,
    cycle: u64,
    divergence: Option<Divergence>,
    commands: usize,
    op_index: usize,
    tel: Telemetry,
    heartbeat_cycles: u64,
    next_heartbeat: u64,
    start: Instant,
    /// Matrix-cell id from [`FpsObserver::cell`], carried on heartbeats.
    cell: u64,
    /// `fps_cycles_per_second{cell}` — updated at heartbeat cadence
    /// only, so the metrics registry and the progress view agree on one
    /// number without touching the per-cycle hot path.
    cps_gauge: parfait_telemetry::metrics::Gauge,
    /// Observable wires of both worlds over a sliding window
    /// (`PARFAIT_VCD_WINDOW` cycles), recorded only when a VCD dump was
    /// requested via `PARFAIT_VCD_DIR`.
    vcd: Option<(RingTrace, RingTrace)>,
}

struct Divergence {
    cycle: u64,
    real: (bool, bool, u8),
    ideal: (bool, bool, u8),
    real_pc: u32,
    ideal_pc: u32,
}

/// The VCD capture window: the most recent `PARFAIT_VCD_WINDOW` cycles
/// (default 2^16) are retained, so capture on multi-day runs holds a
/// bounded buffer instead of the whole execution. A malformed value is
/// a hard error (via [`parfait_telemetry::env`]).
fn vcd_window() -> usize {
    parfait_telemetry::env::vcd_window_loud()
}

impl<'a, 's> Dual<'a, 's> {
    /// A fresh pair over the given worlds, counting from zero, zipped
    /// into one product world if `zip` and they agree on all single
    /// state.
    fn new(
        real: &'a mut Soc,
        emu: &'a mut CircuitEmulator<'s>,
        obs: &FpsObserver,
        capture_vcd: bool,
        zip: bool,
    ) -> Self {
        let tel = obs.telemetry.clone();
        let next_heartbeat = if obs.heartbeat_cycles == 0 || !tel.enabled() {
            u64::MAX
        } else {
            obs.heartbeat_cycles
        };
        let cps_gauge = parfait_telemetry::metrics::Metrics::global()
            .gauge_with("fps_cycles_per_second", &[("cell", &obs.cell.to_string())]);
        let mut dual = Dual {
            real,
            emu,
            product: None,
            zip,
            apart: false,
            cycle: 0,
            divergence: None,
            commands: 0,
            op_index: 0,
            tel,
            heartbeat_cycles: obs.heartbeat_cycles,
            next_heartbeat,
            start: Instant::now(),
            cell: obs.cell,
            cps_gauge,
            vcd: capture_vcd.then(|| {
                let w = vcd_window();
                (RingTrace::new(w), RingTrace::new(w))
            }),
        };
        dual.rezip();
        dual
    }

    /// Zip the two worlds into the product, if allowed and they agree
    /// on all single state.
    fn rezip(&mut self) {
        if self.zip && self.product.is_none() {
            self.product = Soc::zip(self.real, &mut self.emu.soc);
        }
    }

    /// Give each world its SoC back, as it is now.
    fn unzip(&mut self) {
        if let Some(p) = self.product.take() {
            p.unzip(self.real, &mut self.emu.soc);
        }
    }

    /// Split the product at a control disagreement — at the instruction
    /// in execute, before this cycle — for the rest of the run.
    fn split(&mut self) {
        if let Some(p) = &self.product {
            let pc = p.core.instr_in_decode().map_or(p.core.pc(), |(_, pc)| pc);
            self.tel.progress(
                "fps.split",
                &[
                    ("cycle", self.cycle as f64),
                    ("op_index", self.op_index as f64),
                    ("pc", pc as f64),
                ],
            );
        }
        self.unzip();
        self.zip = false;
    }

    /// The (real, ideal) program counters.
    fn pcs(&self) -> (u32, u32) {
        match &self.product {
            Some(p) => (p.core.pc(), p.core.pc()),
            None => (self.real.core.pc(), self.emu.soc.core.pc()),
        }
    }

    /// The (real, ideal) faults. Faults never depend on data, so the
    /// product's one fault is both worlds'.
    fn faults(&self) -> (Option<String>, Option<String>) {
        match &self.product {
            Some(p) => {
                let fault = p.fault();
                (fault.clone(), fault)
            }
            None => (self.real.fault(), self.emu.soc.fault()),
        }
    }
}

impl Circuit for Dual<'_, '_> {
    fn set_input(&mut self, input: WireIn) {
        match &mut self.product {
            Some(p) => p.drive(input),
            None => {
                self.real.set_input(input);
                self.emu.set_input(input);
            }
        }
    }

    fn get_output(&self) -> WireOut {
        match &self.product {
            Some(p) => p.wires(0),
            None => self.real.get_output(),
        }
    }

    fn tick(&mut self) {
        // Compare the observable wires *before* the edge, so a timing
        // divergence is caught at the first differing cycle.
        let (r, i) = match &self.product {
            Some(p) => (p.wires(0).observable(), p.wires(1).observable()),
            None => (self.real.get_output().observable(), self.emu.get_output().observable()),
        };
        if let Some((real_trace, ideal_trace)) = &mut self.vcd {
            real_trace.push(r);
            ideal_trace.push(i);
        }
        if r != i && self.divergence.is_none() {
            let (real_pc, ideal_pc) = self.pcs();
            self.divergence =
                Some(Divergence { cycle: self.cycle, real: r, ideal: i, real_pc, ideal_pc });
        }
        if let Some(p) = &mut self.product {
            if p.try_tick() {
                self.emu.watch(p, 1);
            } else {
                self.split();
            }
        }
        if self.product.is_none() {
            self.apart = true;
            self.real.tick();
            self.emu.tick();
        }
        self.cycle += 1;
        if self.cycle >= self.next_heartbeat {
            self.next_heartbeat = self.cycle.saturating_add(self.heartbeat_cycles.max(1));
            let rate = self.cycle as f64 / self.start.elapsed().as_secs_f64().max(1e-9);
            // The gauge and the heartbeat carry the same number, so the
            // metrics snapshot and the progress view never disagree.
            self.cps_gauge.set(rate);
            let (real_pc, ideal_pc) = self.pcs();
            self.tel.progress(
                "fps.heartbeat",
                &[
                    ("cycles", self.cycle as f64),
                    ("cycles_per_s", rate),
                    ("commands", self.commands as f64),
                    ("op_index", self.op_index as f64),
                    ("cell", self.cell as f64),
                    ("real_pc", real_pc as f64),
                    ("ideal_pc", ideal_pc as f64),
                ],
            );
        }
    }

    fn cycles(&self) -> u64 {
        self.cycle
    }
}

/// Run the FPS check.
///
/// * `real` — the SoC with the secret initial state;
/// * `emu` — the emulator around a dummy-state SoC, holding the ideal
///   world's spec state;
/// * `project` — the developer's refinement relation (fig. 9) as a
///   projection from the real circuit to an encoded spec state;
/// * `script` — the adversarial host script.
pub fn check_fps(
    real: &mut Soc,
    emu: &mut CircuitEmulator<'_>,
    cfg: &FpsConfig,
    project: &dyn Fn(&Soc) -> Vec<u8>,
    script: &[HostOp],
) -> Result<FpsReport, FpsError> {
    check_fps_traced(real, emu, cfg, project, script, &FpsObserver::default()).map_err(|f| f.error)
}

/// [`check_fps`] with observability: a `fps.run` span with one span per
/// script op, periodic heartbeats, and — on failure — the partial
/// [`FpsReport`] accumulated up to that point. At the end of every run,
/// passed or failed, it adds the run's facts to `Metrics::global()`:
/// cycles, spec queries, instructions the real core retired, timeouts
/// and failures (`fps_*_total`), both worlds' FIFO high-water marks
/// (`fps_fifo_high_water{world,fifo}`), and the decode and spec-memo
/// lookups.
///
/// When the `PARFAIT_VCD_DIR` environment variable is set, both worlds'
/// observable wires are recorded and a [`FpsError::TraceDivergence`]
/// failure writes a dual-scope VCD waveform into that directory.
pub fn check_fps_traced(
    real: &mut Soc,
    emu: &mut CircuitEmulator<'_>,
    cfg: &FpsConfig,
    project: &dyn Fn(&Soc) -> Vec<u8>,
    script: &[HostOp],
    obs: &FpsObserver,
) -> Result<FpsReport, FpsFailure> {
    run_check(real, emu, cfg, project, script, obs, true)
}

/// [`check_fps_traced`] with the two worlds stepped apart from the
/// first cycle: the dual loop alone, which the product world falls
/// back to. It is the product path's test oracle; both must give the
/// same result, report and end states.
pub fn check_fps_dual_traced(
    real: &mut Soc,
    emu: &mut CircuitEmulator<'_>,
    cfg: &FpsConfig,
    project: &dyn Fn(&Soc) -> Vec<u8>,
    script: &[HostOp],
    obs: &FpsObserver,
) -> Result<FpsReport, FpsFailure> {
    run_check(real, emu, cfg, project, script, obs, false)
}

fn run_check(
    real: &mut Soc,
    emu: &mut CircuitEmulator<'_>,
    cfg: &FpsConfig,
    project: &dyn Fn(&Soc) -> Vec<u8>,
    script: &[HostOp],
    obs: &FpsObserver,
    zip: bool,
) -> Result<FpsReport, FpsFailure> {
    let start = Instant::now();
    let tel = obs.telemetry.clone();
    let run_span = tel.span("fps.run");
    let vcd_dir = std::env::var_os("PARFAIT_VCD_DIR");
    let mut dual = Dual::new(real, emu, obs, vcd_dir.is_some(), zip);
    dual.start = start;
    let mut wire_responses: Vec<Vec<u8>> = Vec::new();
    let outcome = run_ops(&mut dual, cfg, project, script, &mut wire_responses);
    dual.unzip();
    let outcome = outcome
        .and_then(|()| end_of_script_checks(dual.real, &dual.emu.spec_responses, &wire_responses));
    // The statistics are computed the same way on success and failure,
    // so an aborted run still reports how far it got.
    let wall = start.elapsed();
    let report = FpsReport {
        cycles: dual.cycle,
        wall,
        cpu: wall,
        commands: dual.commands,
        spec_queries: dual.emu.queries,
    };
    // The run's facts accumulate in `dual` and its two SoCs (no
    // per-cycle atomics) and flush to the registry once here, pass or
    // fail; the rate gauge gets a final whole-run value so a snapshot
    // after a fast run isn't stale.
    let metrics = parfait_telemetry::metrics::Metrics::global();
    metrics.counter("fps_cycles_total").add(dual.cycle);
    metrics.counter("fps_spec_queries_total").add(dual.emu.queries);
    metrics.counter("fps_instructions_retired_total").add(dual.real.instructions_retired());
    let timed_out = matches!(outcome, Err(FpsError::Timeout { .. }));
    metrics.counter("fps_timeouts_total").add(timed_out as u64);
    metrics.counter("fps_world_splits_total").add((zip && dual.apart) as u64);
    metrics.counter("fps_failures_total").add(outcome.is_err() as u64);
    for (world, soc) in [("real", &*dual.real), ("ideal", &dual.emu.soc)] {
        for (fifo, high_water) in
            [("rx", soc.rx_fifo.high_water()), ("tx", soc.tx_fifo.high_water())]
        {
            metrics
                .histogram_with("fps_fifo_high_water", &[("world", world), ("fifo", fifo)])
                .record(high_water as u64);
        }
    }
    flush_decode_stats(dual.real, &mut dual.emu.soc);
    flush_spec_memo_stats(dual.emu);
    metrics
        .gauge_with("fps_cycles_per_second", &[("cell", &obs.cell.to_string())])
        .set(report.cycles_per_second());
    drop(run_span);
    match outcome {
        Ok(()) => Ok(report),
        Err(error) => {
            report_failure(&tel, &error, dual.vcd.take());
            Err(FpsFailure { error, partial: report })
        }
    }
}

/// Drain both worlds' decode-cache hit/miss counters into the metrics
/// registry. The counts are deterministic for a given run, so the perf
/// ratchet can key on them.
fn flush_decode_stats(real: &mut Soc, ideal: &mut Soc) {
    let (rh, rm) = real.take_decode_stats();
    let (ih, im) = ideal.take_decode_stats();
    let metrics = parfait_telemetry::metrics::Metrics::global();
    metrics.counter("decode_cache_hit").add(rh + ih);
    metrics.counter("decode_cache_miss").add(rm + im);
}

/// Drain the spec's whole-command memo counters into the metrics
/// registry (`spec_step_memo_total{outcome}`).
fn flush_spec_memo_stats(emu: &CircuitEmulator<'_>) {
    let (hits, misses) = emu.take_spec_memo_stats();
    let metrics = parfait_telemetry::metrics::Metrics::global();
    metrics.counter_with("spec_step_memo_total", &[("outcome", "hit")]).add(hits);
    metrics.counter_with("spec_step_memo_total", &[("outcome", "miss")]).add(misses);
}

/// Failure-path telemetry: the divergence progress event and the VCD
/// window dump into `PARFAIT_VCD_DIR`.
fn report_failure(tel: &Telemetry, error: &FpsError, vcd: Option<(RingTrace, RingTrace)>) {
    if let FpsError::TraceDivergence { cycle, op_index, real_pc, ideal_pc, .. } = error {
        tel.progress(
            "fps.divergence",
            &[
                ("cycle", *cycle as f64),
                ("op_index", *op_index as f64),
                ("real_pc", *real_pc as f64),
                ("ideal_pc", *ideal_pc as f64),
            ],
        );
        if let (Some(dir), Some((real_ring, ideal_ring))) =
            (std::env::var_os("PARFAIT_VCD_DIR"), vcd)
        {
            let doc = parfait_rtl::vcd::dual_trace_to_vcd(
                "real",
                &real_ring.to_trace(),
                "ideal",
                &ideal_ring.to_trace(),
            );
            let dir = std::path::Path::new(&dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("parfait: could not create VCD dir {}: {e}", dir.display());
            }
            let path = dir.join(format!("fps-divergence-cycle{cycle}.vcd"));
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("parfait: could not write divergence VCD to {}: {e}", path.display());
            }
        }
    }
}

/// Drive one host operation against a circuit, mirroring the wire-level
/// protocol exactly: command/garbage bytes are interleaved with response
/// draining (the device answers after every `command_size`-th byte, and
/// its TX FIFO is finite, so a host that floods bytes across a command
/// boundary without reading would deadlock it). `pending_bytes` carries
/// the framing position across ops; completed responses are appended to
/// `wire_responses`.
///
/// Every host decision depends only on the real world's output wires
/// (the [`Dual`]'s `get_output`), so both worlds see one schedule.
fn drive_op<C: Circuit + ?Sized>(
    c: &mut C,
    op: &HostOp,
    cfg: &FpsConfig,
    pending_bytes: &mut usize,
    wire_responses: &mut Vec<Vec<u8>>,
) -> Result<(), parfait_soc::host::HostTimeout> {
    match op {
        HostOp::Command(cmd) | HostOp::Garbage(cmd) => {
            for &b in cmd {
                parfait_soc::host::send_byte(c, b, cfg.timeout)?;
                *pending_bytes += 1;
                if *pending_bytes == cfg.command_size {
                    *pending_bytes = 0;
                    let r = parfait_soc::host::recv_bytes(c, cfg.response_size, cfg.timeout)?;
                    wire_responses.push(r);
                }
            }
            Ok(())
        }
        HostOp::Idle(n) => {
            parfait_soc::host::idle(c, *n);
            Ok(())
        }
    }
}

/// Drive the script's ops against the lock-stepped pair, returning the
/// first failure.
fn run_ops(
    dual: &mut Dual<'_, '_>,
    cfg: &FpsConfig,
    project: &dyn Fn(&Soc) -> Vec<u8>,
    ops: &[HostOp],
    wire_responses: &mut Vec<Vec<u8>>,
) -> Result<(), FpsError> {
    // The device consumes input in fixed-size commands and answers every
    // completed one; track framing so adversarial partial traffic keeps
    // the script aligned (responses are always drained).
    let mut pending_bytes = 0usize;
    for (op_index, op) in ops.iter().enumerate() {
        dual.op_index = op_index;
        let _op_span = dual.tel.span(match op {
            HostOp::Command(_) => "fps.command",
            HostOp::Garbage(_) => "fps.garbage",
            HostOp::Idle(_) => "fps.idle",
        });
        if matches!(op, HostOp::Command(_)) {
            dual.commands += 1;
        }
        let io_result = drive_op(&mut *dual, op, cfg, &mut pending_bytes, wire_responses);
        // Any wire divergence takes precedence over secondary symptoms.
        if let Some(d) = dual.divergence.take() {
            return Err(FpsError::TraceDivergence {
                cycle: d.cycle,
                op_index,
                real: d.real,
                ideal: d.ideal,
                real_pc: d.real_pc,
                ideal_pc: d.ideal_pc,
            });
        }
        let (real_fault, ideal_fault) = dual.faults();
        if let Some(f) = real_fault {
            return Err(FpsError::Fault { world: "real", detail: f });
        }
        if let Some(f) = ideal_fault {
            return Err(FpsError::Fault { world: "ideal", detail: f });
        }
        if io_result.is_err() {
            return Err(FpsError::Timeout { op_index });
        }
        // Refinement relation at the quiescent point after a command,
        // projected from the real world's own SoC.
        if pending_bytes == 0 && matches!(op, HostOp::Command(_)) {
            dual.unzip();
            let real_state = project(dual.real);
            dual.rezip();
            if real_state != dual.emu.spec_state {
                return Err(FpsError::RefinementViolation {
                    op_index,
                    real_state,
                    spec_state: dual.emu.spec_state.clone(),
                });
            }
        }
    }
    Ok(())
}

/// The whole-script checks that run only after every op passed:
/// functional binding of the wire responses to the spec's responses, and
/// taint silence of the real core.
fn end_of_script_checks(
    real: &Soc,
    spec_responses: &[Vec<u8>],
    wire_responses: &[Vec<u8>],
) -> Result<(), FpsError> {
    // Functional binding: every wire response must equal the spec's
    // response for the corresponding command.
    for (i, wire) in wire_responses.iter().enumerate() {
        match spec_responses.get(i) {
            Some(spec) if spec == wire => {}
            Some(spec) => {
                return Err(FpsError::ResponseMismatch {
                    command_index: i,
                    wire: wire.clone(),
                    spec: spec.clone(),
                })
            }
            None => {
                return Err(FpsError::ResponseMismatch {
                    command_index: i,
                    wire: wire.clone(),
                    spec: Vec::new(),
                })
            }
        }
    }
    // Taint silence: no secret may have reached control state. Each
    // event is classified in the vocabulary of the core's leakage
    // contract, so the diagnostic names the violated clause rather
    // than just the raw event kind.
    let leaks = real.core.leaks();
    if !leaks.is_empty() {
        let events = leaks
            .iter()
            .take(8)
            .map(|l| {
                format!(
                    "{:?} at pc={:#010x} (cycle {}): {}",
                    l.kind,
                    l.pc,
                    l.cycle,
                    parfait_cores::contract::leak_term(l.kind, l.class),
                )
            })
            .collect();
        return Err(FpsError::Leak { events });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_unset_is_the_base_default() {
        assert_eq!(FpsConfig::parse_timeout(None).unwrap(), FpsConfig::BASE_TIMEOUT);
    }

    #[test]
    fn timeout_parses_plain_and_underscored_values() {
        assert_eq!(FpsConfig::parse_timeout(Some("12345")).unwrap(), 12345);
        assert_eq!(FpsConfig::parse_timeout(Some("8_000_000_000")).unwrap(), 8_000_000_000);
        assert_eq!(FpsConfig::parse_timeout(Some(" 42 ")).unwrap(), 42);
    }

    #[test]
    fn timeout_rejects_garbage_zero_and_negative() {
        assert!(FpsConfig::parse_timeout(Some("eight")).is_err());
        assert!(FpsConfig::parse_timeout(Some("0")).is_err());
        assert!(FpsConfig::parse_timeout(Some("-1")).is_err());
        assert!(FpsConfig::parse_timeout(Some("")).is_err());
        // The error names the variable so the fix is obvious.
        let e = FpsConfig::parse_timeout(Some("1e9")).unwrap_err();
        assert!(e.contains("PARFAIT_TIMEOUT"), "{e}");
    }

    #[test]
    fn wcet_derived_timeout_covers_a_full_command_with_margin() {
        assert_eq!(FpsConfig::timeout_from_wcet(1_000_000), 2_004_096);
        // Saturates instead of wrapping on absurd bounds.
        assert_eq!(FpsConfig::timeout_from_wcet(u64::MAX), u64::MAX);
        // A derived bound always beats the last-resort constant for
        // realistic firmware (every certified WCET is far below it).
        assert!(FpsConfig::timeout_from_wcet(100_000_000) < FpsConfig::BASE_TIMEOUT);
    }
}
