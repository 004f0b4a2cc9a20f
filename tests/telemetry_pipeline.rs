//! End-to-end observability of the proof pipeline: `check_fps_traced`
//! against the real password-hasher SoC must emit heartbeats at the
//! configured cycle interval, record its end-of-run facts in the
//! metrics registry, attach a partial report to failures, and dump a
//! dual-scope VCD on wire divergence when asked.

use std::sync::{Arc, Mutex};

use parfait::lockstep::Codec;
use parfait::StateMachine;
use parfait_hsms::firmware::hasher_app_source;
use parfait_hsms::hasher::{
    HasherCodec, HasherCommand, HasherSpec, HasherState, COMMAND_SIZE, RESPONSE_SIZE, STATE_SIZE,
};
use parfait_hsms::platform::{build_firmware, make_soc, AppSizes, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::{check_fps_traced, CircuitEmulator, FpsConfig, FpsError, FpsObserver, HostOp};
use parfait_littlec::codegen::OptLevel;
use parfait_soc::{Firmware, Soc};
use parfait_telemetry::metrics::Metrics;
use parfait_telemetry::sinks::{Fanout, LogSink, SharedBuf};
use parfait_telemetry::{Event, Recorder, Telemetry};

mod common;

/// One captured progress event: name and fields.
type Captured = (String, Vec<(String, f64)>);

/// A recorder keeping every progress event.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<Captured>>>);

impl Recorder for Capture {
    fn record(&mut self, event: &Event<'_>) {
        if let Event::Progress { name, fields, .. } = event {
            let fields = fields.iter().map(|&(k, v)| (k.to_string(), v)).collect();
            self.0.lock().unwrap().push((name.to_string(), fields));
        }
    }
}

impl Capture {
    /// The fields of every progress event named `name`, in order.
    fn progress(&self, name: &str) -> Vec<Vec<(String, f64)>> {
        let events = self.0.lock().unwrap();
        events.iter().filter(|(n, _)| n == name).map(|(_, f)| f.clone()).collect()
    }
}

fn field(fields: &[(String, f64)], key: &str) -> Option<f64> {
    fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn build(opt: OptLevel) -> (Firmware, parfait_riscv::model::AsmStateMachine) {
    // The common -O2 image and spec come from the per-binary cache; the
    // -O0 divergence scenario still compiles its own image.
    if opt == OptLevel::O2 {
        return (common::hasher_fw(), common::hasher_asm_spec());
    }
    let sizes = AppSizes { state: STATE_SIZE, command: COMMAND_SIZE, response: RESPONSE_SIZE };
    let fw = build_firmware(&hasher_app_source(), sizes, opt).unwrap();
    (fw, common::hasher_asm_spec())
}

fn cfg(timeout: u64) -> FpsConfig {
    FpsConfig {
        command_size: COMMAND_SIZE,
        response_size: RESPONSE_SIZE,
        timeout,
        state_size: STATE_SIZE,
    }
}

fn project(soc: &Soc) -> Vec<u8> {
    syssw::active_state(&soc.fram_bytes(0, 256), STATE_SIZE)
}

fn hash_script() -> Vec<HostOp> {
    let cmd = HasherCodec.encode_command(&HasherCommand::Hash { message: [0x11; 32] });
    vec![HostOp::Command(cmd)]
}

#[test]
fn heartbeats_fire_at_the_configured_interval() {
    const INTERVAL: u64 = 10_000;
    let (fw, spec) = build(OptLevel::O2);
    let secret_state = HasherCodec.encode_state(&HasherState { secret: [0x42; 32] });
    let mut real = make_soc(Cpu::Ibex, fw.clone(), &secret_state);
    let dummy_soc = make_soc(Cpu::Ibex, fw, &HasherCodec.encode_state(&HasherSpec.init()));
    let mut emu = CircuitEmulator::new(dummy_soc, &spec, secret_state, COMMAND_SIZE);

    let events = Capture::default();
    let log = SharedBuf::new();
    let tel = Telemetry::new(Box::new(Fanout::new(vec![
        Box::new(events.clone()),
        Box::new(LogSink::new(log.writer())),
    ])));
    let obs = FpsObserver { telemetry: tel.clone(), heartbeat_cycles: INTERVAL, cell: 0 };
    let rx_high_water = || {
        let snap = Metrics::global().snapshot();
        snap.hist("fps_fifo_high_water", &[("world", "real"), ("fifo", "rx")])
            .map_or(0, |h| h.count)
    };
    let rx_samples_before = rx_high_water();
    let report =
        check_fps_traced(&mut real, &mut emu, &cfg(20_000_000), &project, &hash_script(), &obs)
            .expect("the hasher verifies");
    tel.finish();

    // The event stream carries one fps.heartbeat progress event per
    // full INTERVAL of simulated cycles, stamped with the cycle count.
    let heartbeats = events.progress("fps.heartbeat");
    let heartbeat_cycles: Vec<u64> =
        heartbeats.iter().map(|f| field(f, "cycles").unwrap() as u64).collect();
    assert!(!heartbeat_cycles.is_empty(), "a {}-cycle run must heartbeat", report.cycles);
    assert_eq!(
        heartbeat_cycles.len() as u64,
        report.cycles / INTERVAL,
        "one heartbeat per {INTERVAL} cycles over {} cycles",
        report.cycles
    );
    for (i, c) in heartbeat_cycles.iter().enumerate() {
        assert_eq!(*c, (i as u64 + 1) * INTERVAL, "heartbeats land on the interval grid");
    }
    // Rate and progress context ride along on every heartbeat.
    let first = &heartbeats[0];
    assert!(field(first, "cycles_per_s").unwrap() > 0.0);
    assert!(field(first, "real_pc").is_some() && field(first, "ideal_pc").is_some());

    // The human-readable log shows the same heartbeat with a rate.
    let log_text = log.take_string();
    let hb_line = log_text
        .lines()
        .find(|l| l.contains("* fps.heartbeat"))
        .expect("log sink prints heartbeats");
    assert!(hb_line.contains("cycles_per_s="), "{hb_line}");
    // The FIFO high-water marks were recorded at the end of the run.
    assert!(rx_high_water() > rx_samples_before, "an fps_fifo_high_water{{real,rx}} sample");
}

#[test]
fn timeout_failure_carries_partial_report() {
    let (fw, spec) = build(OptLevel::O2);
    let secret_state = HasherCodec.encode_state(&HasherState { secret: [0x42; 32] });
    let mut real = make_soc(Cpu::Ibex, fw.clone(), &secret_state);
    let dummy_soc = make_soc(Cpu::Ibex, fw, &HasherCodec.encode_state(&HasherSpec.init()));
    let mut emu = CircuitEmulator::new(dummy_soc, &spec, secret_state, COMMAND_SIZE);

    let tel = Telemetry::new(Box::new(Capture::default()));
    let obs = FpsObserver { telemetry: tel.clone(), heartbeat_cycles: 0, cell: 0 };
    let counts = || {
        let snap = Metrics::global().snapshot();
        (snap.counter_total("fps_timeouts_total"), snap.counter_total("fps_failures_total"))
    };
    let (timeouts_before, failures_before) = counts();
    // A Hash command needs far more than 100 cycles of compute, so the
    // host's per-byte handshake budget is guaranteed to run out.
    let failure = check_fps_traced(&mut real, &mut emu, &cfg(100), &project, &hash_script(), &obs)
        .expect_err("a 100-cycle timeout cannot complete a hash");
    tel.finish();

    assert!(matches!(failure.error, FpsError::Timeout { .. }), "{}", failure.error);
    // The partial report still says how far the run got (the satellite
    // fix: previously cycles/wall were only filled in on success).
    assert!(failure.partial.cycles > 0, "cycles survive the failure");
    assert_eq!(failure.partial.commands, 1);
    assert!(failure.partial.wall.as_nanos() > 0);
    // The Display form surfaces the context too.
    assert!(format!("{failure}").contains("cycles"), "{failure}");
    // And the timeout was counted, as a failure too.
    let (timeouts, failures) = counts();
    assert!(timeouts > timeouts_before, "fps_timeouts_total rose");
    assert!(failures > failures_before, "fps_failures_total rose");
}

#[test]
fn divergence_dumps_dual_scope_vcd() {
    // Real world at -O0, ideal world at -O2: the timing difference is a
    // wire-level divergence the checker must catch — and, with
    // PARFAIT_VCD_DIR set, dump as a dual-scope waveform.
    let dir = std::env::temp_dir().join(format!("parfait-vcd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("PARFAIT_VCD_DIR", &dir);

    let (fw_real, spec) = build(OptLevel::O0);
    let (fw_ideal, _) = build(OptLevel::O2);
    let secret_state = HasherCodec.encode_state(&HasherState { secret: [0x42; 32] });
    let mut real = make_soc(Cpu::Ibex, fw_real, &secret_state);
    let dummy_soc = make_soc(Cpu::Ibex, fw_ideal, &HasherCodec.encode_state(&HasherSpec.init()));
    let mut emu = CircuitEmulator::new(dummy_soc, &spec, secret_state, COMMAND_SIZE);

    let failure = check_fps_traced(
        &mut real,
        &mut emu,
        &cfg(20_000_000),
        &project,
        &hash_script(),
        &FpsObserver::default(),
    )
    .expect_err("-O0 vs -O2 must diverge at the wire level");
    std::env::remove_var("PARFAIT_VCD_DIR");
    let FpsError::TraceDivergence { cycle, .. } = failure.error else {
        panic!("expected TraceDivergence, got {}", failure.error);
    };

    let vcd_path = dir.join(format!("fps-divergence-cycle{cycle}.vcd"));
    let vcd = std::fs::read_to_string(&vcd_path).expect("divergence VCD written");
    assert!(vcd.contains("$scope module real $end"));
    assert!(vcd.contains("$scope module ideal $end"));
    assert!(vcd.contains("$var wire 8 d tx_data"));
    assert!(vcd.contains("$var wire 8 D tx_data"));
    let _ = std::fs::remove_dir_all(&dir);
}
