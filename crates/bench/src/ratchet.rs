//! The CI ratchet behind `perfstat` and `boundstat`.
//!
//! Both bins gate numbers that are deterministic functions of the
//! code: `perfstat` the hot paths' work counters (fixpoint iterations,
//! simulated cycles, memo hits — wall-clock benchmarks flake with
//! machine load, these counters cannot), `boundstat` every production
//! cell's certified WCET and stack depth. A run yields a
//! [`Measurement`]: named `u64` values, each with the direction it may
//! move in, plus optional wall seconds per workload. [`gate`] compares
//! it against a committed [`Baseline`] (`perf_baseline.json`,
//! `bound_baseline.json`).
//!
//! A value *worse* than the baseline fails, and so does a baselined
//! value that was not measured. A better one passes with a note asking
//! for the baseline to be ratcheted forward; a value the baseline has
//! not seen yet is a note. Wall clock is a backstop only: a baseline
//! may record a generous ceiling per workload (several multiples of
//! the wall measured at update), so a pathological slowdown still
//! fails even if no value moved.
//!
//! `--update` rewrites the baseline from the current run but
//! **refuses whatever the check fails**: a regression, a vanished
//! value or a wall over its ceiling. Accepting one requires deleting
//! its entry (or the file) in the same change, where review sees it,
//! not just re-running the updater.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use parfait_telemetry::json::{self, Json};

/// Which way a gated value is allowed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// e.g. fixpoint iterations, simulated cycles, certified bounds.
    LowerIsBetter,
    /// e.g. memo hits, cache hit rate, analysis coverage.
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

/// One run's worth of gate inputs: each value with its direction, plus
/// wall seconds per workload.
#[derive(Debug, Default, Clone)]
pub struct Measurement {
    pub values: BTreeMap<String, (u64, Direction)>,
    pub walls: BTreeMap<String, f64>,
}

impl Measurement {
    /// The measurement as a two-column table, walls last.
    pub fn render(&self, title: &str) -> String {
        let mut rows: Vec<Vec<String>> =
            self.values.iter().map(|(k, (v, _))| vec![k.clone(), v.to_string()]).collect();
        rows.extend(self.walls.iter().map(|(k, v)| vec![k.clone(), format!("{v:.2}")]));
        crate::render_table(title, &["Metric", "Value"], &rows)
    }

    /// The `--json` artifact: values and walls under an artifact tag.
    pub fn to_json(&self, artifact: &str) -> Json {
        Json::obj([
            ("artifact", Json::str(artifact)),
            (
                "counters",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, &(v, _))| (k.clone(), Json::Int(v as i64)))
                        .collect(),
                ),
            ),
            (
                "walls_s",
                Json::Obj(self.walls.iter().map(|(k, &v)| (k.clone(), Json::Num(v))).collect()),
            ),
        ])
    }
}

/// The recorded baseline.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    pub values: BTreeMap<String, (u64, Direction)>,
    /// Workload → wall-clock ceiling in seconds.
    pub wall_ceilings: BTreeMap<String, f64>,
}

/// A single gate violation, printable as the CI failure line.
#[derive(Debug, PartialEq)]
pub enum Violation {
    Worse { name: String, direction: Direction, baseline: u64, measured: u64 },
    Wall { workload: String, ceiling: f64, measured: f64 },
    Missing { name: String },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Worse { name, direction, baseline, measured } => write!(
                f,
                "{name}: {measured} is worse than baseline {baseline} ({} is better)",
                direction.as_str()
            ),
            Violation::Wall { workload, ceiling, measured } => {
                write!(f, "{workload}: {measured:.2}s exceeds the wall ceiling {ceiling:.2}s")
            }
            Violation::Missing { name } => {
                write!(f, "{name}: baselined value was not measured (workload changed?)")
            }
        }
    }
}

/// The gate verdict: hard failures plus informational notes
/// (improvements to ratchet in, values not yet baselined).
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

/// Every way `m` fails `baseline`, judged in the baseline's directions.
fn violations(baseline: &Baseline, m: &Measurement) -> Vec<Violation> {
    let mut v = Vec::new();
    for (name, &(base, direction)) in &baseline.values {
        match m.values.get(name) {
            None => v.push(Violation::Missing { name: name.clone() }),
            Some(&(got, _)) if direction.is_regression(got, base) => v.push(Violation::Worse {
                name: name.clone(),
                direction,
                baseline: base,
                measured: got,
            }),
            Some(_) => {}
        }
    }
    for (workload, &ceiling) in &baseline.wall_ceilings {
        match m.walls.get(workload) {
            Some(&got) if got > ceiling => {
                v.push(Violation::Wall { workload: workload.clone(), ceiling, measured: got })
            }
            _ => {}
        }
    }
    v
}

/// Compare a measurement against the baseline; `bin` names the updater
/// in the improvement notes.
pub fn check(baseline: &Baseline, m: &Measurement, bin: &str) -> Verdict {
    let mut notes = Vec::new();
    for (name, &(got, _)) in &m.values {
        match baseline.values.get(name) {
            None => notes.push(format!("{name}: not in baseline yet (measured {got})")),
            Some(&(base, direction)) if direction.is_improvement(got, base) => notes
                .push(format!("{name}: improved {base} -> {got}; ratchet with `{bin} --update`")),
            Some(_) => {}
        }
    }
    Verdict { violations: violations(baseline, m), notes }
}

/// How generous the wall ceiling is relative to the measured wall at
/// `--update` time: room for machine noise without ever letting a
/// multi-x slowdown through.
const WALL_CEILING_FACTOR: f64 = 5.0;
const WALL_CEILING_FLOOR_S: f64 = 20.0;

/// Build the new baseline from a measurement, refusing everything the
/// check against `prev` (if any) fails. The error lists each violation:
/// the updater never launders a regression or a vanished value into
/// the record.
pub fn update(prev: Option<&Baseline>, m: &Measurement) -> Result<Baseline, Vec<Violation>> {
    let refused = prev.map(|prev| violations(prev, m)).unwrap_or_default();
    if !refused.is_empty() {
        return Err(refused);
    }
    let wall_ceilings = m
        .walls
        .iter()
        .map(|(w, &s)| (w.clone(), (s * WALL_CEILING_FACTOR).max(WALL_CEILING_FLOOR_S)))
        .collect();
    Ok(Baseline { values: m.values.clone(), wall_ceilings })
}

impl Baseline {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Int(1)),
            (
                "counters",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(name, &(v, direction))| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Int(v as i64)),
                                    ("better", Json::str(direction.as_str())),
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
        let values = doc
            .get("counters")
            .and_then(|c| match c {
                Json::Obj(fields) => Some(fields),
                _ => None,
            })
            .ok_or("missing counters object")?;
        let mut out = Baseline::default();
        for (name, entry) in values {
            let value = entry
                .get("value")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("counter {name}: missing value"))?;
            let better = entry
                .get("better")
                .and_then(Json::as_str)
                .and_then(Direction::parse)
                .ok_or_else(|| format!("counter {name}: missing/invalid direction"))?;
            out.values.insert(name.clone(), (value, better));
        }
        if let Some(Json::Obj(walls)) = doc.get("wall_ceilings_s") {
            for (w, s) in walls {
                let s = s.as_f64().ok_or_else(|| format!("wall ceiling {w}: not a number"))?;
                out.wall_ceilings.insert(w.clone(), s);
            }
        }
        Ok(out)
    }

    /// Read a baseline file; `Ok(None)` when it does not exist.
    pub fn load(path: &Path) -> Result<Option<Baseline>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.to_string()),
        };
        let doc = json::parse(&text).map_err(|e| e.to_string())?;
        Baseline::from_json(&doc).map(Some)
    }
}

/// The ratchet step of `bin`: check `m` against the baseline at `path`
/// or, with `update`, rewrite the baseline from it. Returns the exit
/// code; every message goes to stderr.
pub fn gate(path: &Path, m: &Measurement, update: bool, bin: &str) -> u8 {
    let (code, lines) = judge(path, m, update, bin);
    for line in lines {
        eprintln!("{line}");
    }
    code
}

/// [`gate`]'s exit code and the lines it prints.
fn judge(path: &Path, m: &Measurement, update: bool, bin: &str) -> (u8, Vec<String>) {
    let shown = path.display();
    let prev = match Baseline::load(path) {
        Ok(prev) => prev,
        Err(e) => return (1, vec![format!("error: {shown}: {e}")]),
    };
    if update {
        return match self::update(prev.as_ref(), m) {
            Ok(b) => match crate::write_json(path, &b.to_json()) {
                Ok(()) => (0, vec![format!("{bin}: baseline updated: {shown}")]),
                Err(e) => (1, vec![format!("error: cannot write {shown}: {e}")]),
            },
            Err(refused) => {
                let mut lines = vec![format!(
                    "error: refusing to update {shown}: {} violation(s):",
                    refused.len()
                )];
                lines.extend(refused.iter().map(|v| format!("  {v}")));
                lines.push("(fix them, or delete their entries or the file to accept them)".into());
                (1, lines)
            }
        };
    }
    let Some(prev) = prev else {
        let hint = format!("create it with `{bin} --baseline {shown} --update`");
        return (1, vec![format!("error: {shown} does not exist; {hint}")]);
    };
    let verdict = check(&prev, m, bin);
    let mut lines: Vec<String> = verdict.notes.iter().map(|n| format!("note: {n}")).collect();
    if !verdict.pass() {
        lines.push(format!("error: {bin} ratchet: {} violation(s):", verdict.violations.len()));
        lines.extend(verdict.violations.iter().map(|v| format!("  {v}")));
        return (1, lines);
    }
    let (values, walls) = (prev.values.len(), prev.wall_ceilings.len());
    lines.push(format!("{bin}: ok ({values} gated values, {walls} wall ceilings)"));
    (0, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Direction::{HigherIsBetter as Higher, LowerIsBetter as Lower};

    fn measurement(pairs: &[(&str, u64, Direction)]) -> Measurement {
        Measurement {
            values: pairs.iter().map(|&(n, v, d)| (n.to_string(), (v, d))).collect(),
            walls: BTreeMap::new(),
        }
    }

    fn baseline(pairs: &[(&str, u64, Direction)]) -> Baseline {
        Baseline { values: measurement(pairs).values, wall_ceilings: BTreeMap::new() }
    }

    #[test]
    fn equal_measurement_passes_quietly() {
        let b = baseline(&[("iters", 100, Lower), ("hits", 50, Higher)]);
        let v = check(&b, &measurement(&[("iters", 100, Lower), ("hits", 50, Higher)]), "perfstat");
        assert!(v.pass(), "{:?}", v.violations);
        assert!(v.notes.is_empty(), "{:?}", v.notes);
    }

    #[test]
    fn a_value_worse_in_its_direction_fails() {
        // Per-cell bound names, as `boundstat` reports them: one
        // loosened bound is one violation, named.
        let b = baseline(&[
            ("hasher/Ibex/-O2/wcet_cycles", 100_000, Lower),
            ("hasher/Ibex/-O2/stack_depth", 640, Lower),
            ("hits", 50, Higher),
        ]);
        let got = |wcet, stack, hits| {
            measurement(&[
                ("hasher/Ibex/-O2/wcet_cycles", wcet, Lower),
                ("hasher/Ibex/-O2/stack_depth", stack, Lower),
                ("hits", hits, Higher),
            ])
        };
        for (m, name) in [
            (got(100_001, 640, 50), "hasher/Ibex/-O2/wcet_cycles"),
            (got(100_000, 644, 50), "hasher/Ibex/-O2/stack_depth"),
            // Fewer memo hits: also worse, opposite direction.
            (got(100_000, 640, 49), "hits"),
        ] {
            let v = check(&b, &m, "boundstat");
            assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
            assert!(matches!(&v.violations[0], Violation::Worse { name: n, .. } if n == name));
            assert!(v.violations[0].to_string().starts_with(name), "{}", v.violations[0]);
        }
    }

    #[test]
    fn improvements_pass_with_a_note_naming_the_updater() {
        let b = baseline(&[("totp/PicoRV32/-O0/wcet_cycles", 500, Lower)]);
        let v =
            check(&b, &measurement(&[("totp/PicoRV32/-O0/wcet_cycles", 400, Lower)]), "boundstat");
        assert!(v.pass());
        assert_eq!(v.notes.len(), 1);
        assert!(v.notes[0].contains("`boundstat --update`"), "{}", v.notes[0]);
    }

    #[test]
    fn vanished_values_fail_and_unbaselined_values_are_notes() {
        let b = baseline(&[("hasher/Ibex/-O2/wcet_cycles", 100, Lower)]);
        let v = check(&b, &measurement(&[("totp/Ibex/-O2/wcet_cycles", 100, Lower)]), "boundstat");
        assert_eq!(
            v.violations,
            vec![Violation::Missing { name: "hasher/Ibex/-O2/wcet_cycles".into() }]
        );
        assert_eq!(v.notes.len(), 1, "new value noted: {:?}", v.notes);
        assert!(v.notes[0].contains("not in baseline yet"), "{}", v.notes[0]);
    }

    #[test]
    fn wall_ceiling_is_a_backstop_and_update_sets_generous_ones() {
        let mut b = baseline(&[]);
        b.wall_ceilings.insert("fps_s".into(), 10.0);
        let mut m = measurement(&[]);
        m.walls.insert("fps_s".into(), 10.5);
        let v = check(&b, &m, "perfstat");
        assert_eq!(v.violations.len(), 1);
        assert!(v.violations[0].to_string().contains("ceiling"), "{}", v.violations[0]);
        m.walls.insert("fps_s".into(), 9.5);
        assert!(check(&b, &m, "perfstat").pass());

        let mut m = measurement(&[]);
        m.walls.insert("lint_s".into(), 2.0);
        m.walls.insert("fps_s".into(), 30.0);
        let b = update(None, &m).unwrap();
        // Small walls get the floor, large ones the factor.
        assert_eq!(b.wall_ceilings["lint_s"], WALL_CEILING_FLOOR_S);
        assert_eq!(b.wall_ceilings["fps_s"], 150.0);
    }

    #[test]
    fn update_refuses_what_check_fails() {
        let prev = baseline(&[("iters", 100, Lower), ("retired_gate", 7, Higher)]);
        // A regression and a vanished value are both refused, together.
        let err = update(Some(&prev), &measurement(&[("iters", 200, Lower)])).unwrap_err();
        assert_eq!(err.len(), 2, "{err:?}");
        assert!(err.contains(&Violation::Missing { name: "retired_gate".into() }));
        // An honest improvement updates the record, directions included.
        let better = measurement(&[("iters", 50, Lower), ("retired_gate", 7, Higher)]);
        let b = update(Some(&prev), &better).unwrap();
        assert_eq!(b.values, better.values);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let mut b = baseline(&[("iters", 123, Lower), ("hits", 7, Higher)]);
        b.wall_ceilings.insert("fps_s".into(), 42.5);
        let parsed = Baseline::from_json(&json::parse(&b.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(parsed.values, b.values);
        assert_eq!(parsed.wall_ceilings, b.wall_ceilings);
    }

    #[test]
    fn committed_baselines_parse_through_the_module() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let load = |name: &str| {
            Baseline::load(&root.join(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .unwrap_or_else(|| panic!("{name} is committed"))
        };
        let perf = load("perf_baseline.json");
        assert_eq!((perf.values.len(), perf.wall_ceilings.len()), (15, 5));
        let bound = load("bound_baseline.json");
        assert_eq!(bound.values.len(), 28);
        assert!(bound.wall_ceilings.is_empty());
        // Certified bounds may only tighten.
        assert!(bound.values.values().all(|&(_, d)| d == Lower));
    }

    /// A private scratch file for one gate test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("parfait-ratchet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn run_gate(path: &Path, m: &Measurement, update: bool) -> (u8, String) {
        let (code, lines) = judge(path, m, update, "perfstat");
        (code, lines.join("\n"))
    }

    #[test]
    fn gate_reads_checks_and_updates_the_file() {
        let m = measurement(&[("iters", 100, Lower)]);

        // A missing file fails the check with the hint, and creates it
        // on update.
        let path = scratch("missing.json");
        let (code, out) = run_gate(&path, &m, false);
        assert_eq!(code, 1);
        let hint = format!("`perfstat --baseline {} --update`", path.display());
        assert!(out.contains(&hint), "{out}");
        assert!(!path.exists());
        assert_eq!(run_gate(&path, &m, true).0, 0);

        // Clean against what it just wrote.
        let (code, out) = run_gate(&path, &m, false);
        assert_eq!(code, 0, "{out}");

        // A malformed file fails both modes and is left alone.
        let bad = scratch("malformed.json");
        std::fs::write(&bad, "{\"counters\":").unwrap();
        assert_eq!(run_gate(&bad, &m, false).0, 1);
        assert_eq!(run_gate(&bad, &m, true).0, 1);
        assert_eq!(std::fs::read_to_string(&bad).unwrap(), "{\"counters\":");

        // An update over a regression exits 1 and writes nothing.
        let before = std::fs::read(&path).unwrap();
        let (code, out) = run_gate(&path, &measurement(&[("iters", 101, Lower)]), true);
        assert_eq!(code, 1);
        assert!(out.contains("refusing"), "{out}");
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // An update over an improvement rewrites the file.
        let better = measurement(&[("iters", 90, Lower)]);
        assert_eq!(run_gate(&path, &better, true).0, 0);
        let rewritten = Baseline::load(&path).unwrap().unwrap();
        assert_eq!(rewritten.values, better.values);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&bad);
    }
}
