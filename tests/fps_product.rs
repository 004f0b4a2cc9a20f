//! FPS steps both worlds as one product SoC and falls back to the dual
//! loop only at a control disagreement (DESIGN.md §8). Production
//! firmware is constant-time, so its runs must never fall back: a
//! product path that always did would still pass every verdict, only
//! slower. This binary holds this one test so that the process-wide
//! `fps_world_splits_total` counter sees no other run.

use parfait_hsms::platform::Cpu;
use parfait_knox2::{FpsConfig, FpsObserver};
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{CertCache, Pipeline, StdApp};
use parfait_telemetry::metrics::Metrics;
use parfait_telemetry::Telemetry;

fn splits() -> u64 {
    Metrics::global().snapshot().counter_total("fps_world_splits_total")
}

#[test]
fn hasher_and_totp_cells_never_leave_the_product_world() {
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    let before = splits();
    let mut runs = 0;
    for app in [StdApp::Hasher, StdApp::Totp] {
        let app = app.pipeline();
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            for cpu in [Cpu::Ibex, Cpu::Pico] {
                let obs = FpsObserver::default();
                pipeline
                    .run_fps(&app, cpu, opt, &obs, FpsConfig::BASE_TIMEOUT)
                    .unwrap_or_else(|e| panic!("{}/{cpu}/{opt}: {e}", app.slug));
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 12);
    assert_eq!(splits() - before, 0, "a production cell fell back to the dual loop");
}
