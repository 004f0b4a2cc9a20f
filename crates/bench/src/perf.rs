//! The CI performance ratchet (`perfstat`).
//!
//! The hot paths this repo optimizes — the tick loop's pre-decoded
//! instruction cache, the sparse analyzer fixpoint, the build memo —
//! are all *deterministic*: the same workload executes the same number of
//! simulated cycles, worklist pops, memo hits, and cache probes on
//! every run. Wall-clock benchmarks flake with machine load, but these
//! counters cannot, so they make a perfect regression gate: CI runs a
//! fixed workload, reads the counter deltas, and compares them to
//! `perf_baseline.json`.
//!
//! Each gated counter has a direction. A measurement *worse* than the
//! baseline (more fixpoint iterations, a lower decode-cache hit rate)
//! fails the gate; a better one passes and prints a note asking for
//! the baseline to be ratcheted forward. Wall-clock is a backstop
//! only: each workload records a generous ceiling (several multiples
//! of the measured time at update), so a pathological slowdown still
//! fails even if no counter moved.
//!
//! `perfstat --update` rewrites the baseline from the current run but
//! **refuses regressions**: if any gated counter is worse than the
//! recorded baseline, the update fails loudly. Shipping a deliberate
//! perf regression requires deleting the baseline file in the same
//! change — visible in review — not just re-running the updater.

use std::collections::BTreeMap;
use std::fmt;

use parfait_telemetry::json::Json;

/// Which way a gated counter is allowed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// e.g. fixpoint iterations, simulated cycles, cache misses.
    LowerIsBetter,
    /// e.g. memo hits, cache hit rate.
    HigherIsBetter,
}

impl Direction {
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower",
            Direction::HigherIsBetter => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower" => Some(Direction::LowerIsBetter),
            "higher" => Some(Direction::HigherIsBetter),
            _ => None,
        }
    }

    /// Is `measured` strictly worse than `baseline` in this direction?
    pub fn is_regression(self, measured: u64, baseline: u64) -> bool {
        match self {
            Direction::LowerIsBetter => measured > baseline,
            Direction::HigherIsBetter => measured < baseline,
        }
    }

    /// Is `measured` strictly better than `baseline`?
    pub fn is_improvement(self, measured: u64, baseline: u64) -> bool {
        baseline != measured && !self.is_regression(measured, baseline)
    }
}

/// The gated counters, their directions, and the workload each comes
/// from. This table is the single source of truth: the measurement
/// collector, the gate, and the updater all iterate it, so a counter
/// added here is automatically measured, gated, and written to new
/// baselines.
pub const GATES: &[(&str, Direction)] = &[
    // Sparse asm-analyzer fixpoint over the hasher at -O2.
    ("lint_asm_fixpoint_iters", Direction::LowerIsBetter),
    ("lint_ir_fixpoint_iters", Direction::LowerIsBetter),
    ("lint_asm_memo_hits", Direction::HigherIsBetter),
    // Full FPS checks (hasher, ibex + pico, -O2): simulated work.
    ("fps_cycles", Direction::LowerIsBetter),
    // Pre-decoded instruction cache efficiency across those checks,
    // in parts per million of fetches served from the cache.
    ("decode_cache_hit_rate_ppm", Direction::HigherIsBetter),
    // The firmware-compile memo: the second platform's check must
    // reuse the first one's build.
    ("firmware_build_misses", Direction::LowerIsBetter),
    ("firmware_build_hits", Direction::HigherIsBetter),
    // Contract batteries on both cores: stimulus coverage must only
    // ever grow (a shrink means instruction classes lost checks).
    ("contract_stimuli_total", Direction::HigherIsBetter),
    // Static resource-bound analysis (runs inside the FPS workload):
    // analysis coverage must only ever grow — fewer functions or loops
    // certified means the bound stage silently lost sight of code.
    ("bound_functions", Direction::HigherIsBetter),
    ("bound_loops", Direction::HigherIsBetter),
];

/// One run's worth of gate inputs: counter deltas plus wall seconds
/// per workload.
#[derive(Debug, Default, Clone)]
pub struct Measurement {
    pub counters: BTreeMap<String, u64>,
    pub walls: BTreeMap<String, f64>,
}

/// The recorded baseline (`perf_baseline.json`).
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    pub counters: BTreeMap<String, (u64, Direction)>,
    /// Workload → wall-clock ceiling in seconds.
    pub wall_ceilings: BTreeMap<String, f64>,
}

/// A single gate violation, printable as the CI failure line.
#[derive(Debug, PartialEq)]
pub enum Violation {
    Counter { name: String, direction: Direction, baseline: u64, measured: u64 },
    Wall { workload: String, ceiling: f64, measured: f64 },
    Missing { name: String },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Counter { name, direction, baseline, measured } => write!(
                f,
                "{name}: {measured} is worse than baseline {baseline} ({} is better)",
                direction.as_str()
            ),
            Violation::Wall { workload, ceiling, measured } => {
                write!(f, "{workload}: {measured:.2}s exceeds the wall ceiling {ceiling:.2}s")
            }
            Violation::Missing { name } => {
                write!(f, "{name}: baselined counter was not measured (workload changed?)")
            }
        }
    }
}

/// The gate verdict: hard failures plus informational notes
/// (improvements to ratchet in, counters not yet baselined).
#[derive(Debug, Default)]
pub struct Verdict {
    pub violations: Vec<Violation>,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compare a measurement against the baseline.
pub fn check(baseline: &Baseline, m: &Measurement) -> Verdict {
    let mut v = Verdict::default();
    for (name, &(base, dir)) in &baseline.counters {
        match m.counters.get(name) {
            None => v.violations.push(Violation::Missing { name: name.clone() }),
            Some(&got) if dir.is_regression(got, base) => v.violations.push(Violation::Counter {
                name: name.clone(),
                direction: dir,
                baseline: base,
                measured: got,
            }),
            Some(&got) if dir.is_improvement(got, base) => v.notes.push(format!(
                "{name}: improved {base} -> {got}; ratchet with `perfstat --update`"
            )),
            Some(_) => {}
        }
    }
    for (name, &got) in &m.counters {
        if !baseline.counters.contains_key(name) {
            v.notes.push(format!("{name}: not in baseline yet (measured {got})"));
        }
    }
    for (workload, &ceiling) in &baseline.wall_ceilings {
        if let Some(&got) = m.walls.get(workload) {
            if got > ceiling {
                v.violations.push(Violation::Wall {
                    workload: workload.clone(),
                    ceiling,
                    measured: got,
                });
            }
        }
    }
    v
}

/// How generous the wall ceiling is relative to the measured wall at
/// `--update` time: room for machine noise without ever letting a
/// multi-x slowdown through.
const WALL_CEILING_FACTOR: f64 = 5.0;
const WALL_CEILING_FLOOR_S: f64 = 20.0;

/// Build the new baseline from a measurement, refusing regressions
/// against `prev` (if any). The error lists every counter that got
/// worse — the updater never launders a slowdown into the record.
pub fn update(prev: Option<&Baseline>, m: &Measurement) -> Result<Baseline, Vec<Violation>> {
    if let Some(prev) = prev {
        let regressions: Vec<Violation> = prev
            .counters
            .iter()
            .filter_map(|(name, &(base, dir))| {
                let &got = m.counters.get(name)?;
                dir.is_regression(got, base).then(|| Violation::Counter {
                    name: name.clone(),
                    direction: dir,
                    baseline: base,
                    measured: got,
                })
            })
            .collect();
        if !regressions.is_empty() {
            return Err(regressions);
        }
    }
    let counters = GATES
        .iter()
        .filter_map(|&(name, dir)| m.counters.get(name).map(|&v| (name.to_string(), (v, dir))))
        .collect();
    let wall_ceilings = m
        .walls
        .iter()
        .map(|(w, &s)| (w.clone(), (s * WALL_CEILING_FACTOR).max(WALL_CEILING_FLOOR_S)))
        .collect();
    Ok(Baseline { counters, wall_ceilings })
}

impl Baseline {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Int(1)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(name, &(v, dir))| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Int(v as i64)),
                                    ("better", Json::str(dir.as_str())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "wall_ceilings_s",
                Json::Obj(
                    self.wall_ceilings.iter().map(|(w, &s)| (w.clone(), Json::Num(s))).collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Baseline, String> {
        let counters = doc
            .get("counters")
            .and_then(|c| match c {
                Json::Obj(fields) => Some(fields),
                _ => None,
            })
            .ok_or("missing counters object")?;
        let mut out = Baseline::default();
        for (name, entry) in counters {
            let value = entry
                .get("value")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("counter {name}: missing value"))?;
            let better = entry
                .get("better")
                .and_then(Json::as_str)
                .and_then(Direction::parse)
                .ok_or_else(|| format!("counter {name}: missing/invalid direction"))?;
            out.counters.insert(name.clone(), (value, better));
        }
        if let Some(Json::Obj(walls)) = doc.get("wall_ceilings_s") {
            for (w, s) in walls {
                let s = s.as_f64().ok_or_else(|| format!("wall ceiling {w}: not a number"))?;
                out.wall_ceilings.insert(w.clone(), s);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(pairs: &[(&str, u64)]) -> Measurement {
        Measurement {
            counters: pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            walls: BTreeMap::new(),
        }
    }

    fn baseline(pairs: &[(&str, u64, Direction)]) -> Baseline {
        Baseline {
            counters: pairs.iter().map(|&(n, v, d)| (n.to_string(), (v, d))).collect(),
            wall_ceilings: BTreeMap::new(),
        }
    }

    #[test]
    fn equal_measurement_passes() {
        let b = baseline(&[("iters", 100, Direction::LowerIsBetter)]);
        let v = check(&b, &measurement(&[("iters", 100)]));
        assert!(v.pass(), "{:?}", v.violations);
        assert!(v.notes.is_empty());
    }

    #[test]
    fn a_deliberate_regression_fails_the_gate() {
        let b = baseline(&[
            ("iters", 100, Direction::LowerIsBetter),
            ("hits", 50, Direction::HigherIsBetter),
        ]);
        // More iterations: worse.
        let v = check(&b, &measurement(&[("iters", 101), ("hits", 50)]));
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(v.violations[0].to_string().contains("iters"), "{}", v.violations[0]);
        // Fewer memo hits: also worse, opposite direction.
        let v = check(&b, &measurement(&[("iters", 100), ("hits", 49)]));
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(v.violations[0].to_string().contains("hits"), "{}", v.violations[0]);
    }

    #[test]
    fn improvements_pass_with_a_ratchet_note() {
        let b = baseline(&[("iters", 100, Direction::LowerIsBetter)]);
        let v = check(&b, &measurement(&[("iters", 90)]));
        assert!(v.pass());
        assert_eq!(v.notes.len(), 1);
        assert!(v.notes[0].contains("--update"), "{}", v.notes[0]);
    }

    #[test]
    fn a_vanished_counter_fails_loudly() {
        let b = baseline(&[("iters", 100, Direction::LowerIsBetter)]);
        let v = check(&b, &measurement(&[]));
        assert_eq!(v.violations.len(), 1);
        assert!(matches!(v.violations[0], Violation::Missing { .. }));
    }

    #[test]
    fn wall_ceiling_is_a_backstop() {
        let mut b = baseline(&[]);
        b.wall_ceilings.insert("fps_s".into(), 10.0);
        let mut m = measurement(&[]);
        m.walls.insert("fps_s".into(), 10.5);
        let v = check(&b, &m);
        assert_eq!(v.violations.len(), 1);
        assert!(v.violations[0].to_string().contains("ceiling"), "{}", v.violations[0]);
        m.walls.insert("fps_s".into(), 9.5);
        assert!(check(&b, &m).pass());
    }

    #[test]
    fn update_refuses_regressions() {
        let prev = baseline(&[("lint_asm_fixpoint_iters", 100, Direction::LowerIsBetter)]);
        let worse = measurement(&[("lint_asm_fixpoint_iters", 200)]);
        let err = update(Some(&prev), &worse).unwrap_err();
        assert_eq!(err.len(), 1);
        // An honest improvement updates the record.
        let better = measurement(&[("lint_asm_fixpoint_iters", 50)]);
        let b = update(Some(&prev), &better).unwrap();
        assert_eq!(b.counters["lint_asm_fixpoint_iters"], (50, Direction::LowerIsBetter));
    }

    #[test]
    fn update_sets_generous_wall_ceilings() {
        let mut m = measurement(&[]);
        m.walls.insert("lint_s".into(), 2.0);
        m.walls.insert("fps_s".into(), 30.0);
        let b = update(None, &m).unwrap();
        // Small walls get the floor, large ones the factor.
        assert_eq!(b.wall_ceilings["lint_s"], WALL_CEILING_FLOOR_S);
        assert_eq!(b.wall_ceilings["fps_s"], 150.0);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let mut b = baseline(&[
            ("iters", 123, Direction::LowerIsBetter),
            ("hits", 7, Direction::HigherIsBetter),
        ]);
        b.wall_ceilings.insert("fps_s".into(), 42.5);
        let text = b.to_json().to_string();
        let parsed = Baseline::from_json(&parfait_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.counters, b.counters);
        assert_eq!(parsed.wall_ceilings, b.wall_ceilings);
    }
}
