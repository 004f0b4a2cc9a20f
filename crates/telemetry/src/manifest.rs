//! Run manifests: the provenance record every bin writes via
//! `--metrics <path>`.
//!
//! A [`RunManifest`] answers "what produced this number?" for any bench
//! row or CI artifact: which bin, which build, which env knobs, how
//! many threads on how many cores, whether the run succeeded — plus the full
//! [`MetricsSnapshot`] of everything the process counted. It is plain
//! canonical JSON (schema-versioned), parsed back by
//! [`RunManifest::from_json`] so tooling like `cachestat
//! --check-metrics` can assert on it without a JSON library.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{Metrics, MetricsSnapshot};

/// Schema version of the manifest JSON encoding.
pub const MANIFEST_SCHEMA: i64 = 1;

/// A build identifier with no dependency on git: crate version plus
/// profile. Stable across rebuilds of the same source, distinct across
/// releases.
pub fn build_id() -> String {
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!("parfait-{}-{profile}", env!("CARGO_PKG_VERSION"))
}

/// One run's provenance: identity, environment, outcome, and metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Bin name (e.g. `verify`, `bench_fps`).
    pub bin: String,
    /// [`build_id`] of the producing binary.
    pub build_id: String,
    /// Worker threads the run used.
    pub threads: usize,
    /// The machine's available parallelism at capture time (`None` when
    /// unknown, and in manifests written before it was recorded).
    pub available_parallelism: Option<usize>,
    /// Process exit status the run is about to report.
    pub exit_code: i32,
    /// Every [`crate::env::KNOBS`] entry and its value at capture time
    /// (`None` = unset).
    pub env: Vec<(String, Option<String>)>,
    /// Frozen copy of the metrics registry at capture time.
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Capture a manifest from the given registry and the current
    /// process environment.
    pub fn capture(bin: &str, threads: usize, exit_code: i32, metrics: &Metrics) -> RunManifest {
        let env = crate::env::KNOBS
            .iter()
            .map(|k| (k.to_string(), std::env::var_os(k).map(|v| v.to_string_lossy().into_owned())))
            .collect();
        RunManifest {
            bin: bin.to_string(),
            build_id: build_id(),
            threads,
            available_parallelism: std::thread::available_parallelism().ok().map(|n| n.get()),
            exit_code,
            env,
            metrics: metrics.snapshot(),
        }
    }

    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Int(MANIFEST_SCHEMA)),
            ("bin", Json::str(&self.bin)),
            ("build_id", Json::str(&self.build_id)),
            ("threads", Json::Int(self.threads as i64)),
            (
                "available_parallelism",
                self.available_parallelism.map_or(Json::Null, |n| Json::Int(n as i64)),
            ),
            ("exit_code", Json::Int(self.exit_code as i64)),
            (
                "env",
                Json::Obj(
                    self.env
                        .iter()
                        .map(|(k, v)| {
                            (k.clone(), v.as_deref().map(Json::str).unwrap_or(Json::Null))
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// Parse the [`to_json`](Self::to_json) encoding.
    pub fn from_json(j: &Json) -> Result<RunManifest, String> {
        if j.get("schema").and_then(|v| v.as_i64()) != Some(MANIFEST_SCHEMA) {
            return Err("run manifest: missing or unsupported schema".into());
        }
        let field_str = |name: &str| -> Result<String, String> {
            j.get(name)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("run manifest: missing {name}"))
        };
        let field_int = |name: &str| -> Result<i64, String> {
            j.get(name)
                .and_then(|v| v.as_i64())
                .ok_or_else(|| format!("run manifest: missing {name}"))
        };
        let mut env = Vec::new();
        for (k, v) in
            j.get("env").and_then(|v| v.as_object()).ok_or("run manifest: missing env object")?
        {
            let value = match v {
                Json::Null => None,
                other => {
                    Some(other.as_str().ok_or("run manifest: non-string env value")?.to_string())
                }
            };
            env.push((k.clone(), value));
        }
        let metrics =
            MetricsSnapshot::from_json(j.get("metrics").ok_or("run manifest: missing metrics")?)?;
        Ok(RunManifest {
            bin: field_str("bin")?,
            build_id: field_str("build_id")?,
            threads: field_int("threads")? as usize,
            available_parallelism: match j.get("available_parallelism") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    Some(v.as_i64().ok_or("run manifest: non-integer available_parallelism")?
                        as usize)
                }
            },
            exit_code: field_int("exit_code")? as i32,
            env,
            metrics,
        })
    }

    /// Write the manifest as pretty JSON to `path`. Failures are loud
    /// (stderr + exit 2): the user asked for this file by flag.
    pub fn write(&self, path: &Path) {
        let body = self.to_json().to_pretty_string();
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("error: cannot write metrics manifest {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Parse a file that is either a full [`RunManifest`] or a bare
/// [`MetricsSnapshot`], returning the snapshot in both cases. The
/// discriminator is the `bin` field only a manifest has.
pub fn snapshot_from_file(path: &Path) -> Result<MetricsSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let j = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if j.get("bin").is_some() {
        Ok(RunManifest::from_json(&j)?.metrics)
    } else {
        MetricsSnapshot::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = Metrics::new();
        m.counter_with("certcache_disk_hit", &[("stage", "fps")]).add(4);
        m.histogram_with("pipeline_stage_wall_us", &[("stage", "fps")]).record(1234);
        let manifest = RunManifest::capture("verify", 8, 0, &m);
        let text = manifest.to_json().to_pretty_string();
        let back = RunManifest::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.bin, "verify");
        assert_eq!(back.threads, 8);
        let cores = std::thread::available_parallelism().ok().map(|n| n.get());
        assert_eq!(back.available_parallelism, cores);
        assert!(back.env.iter().any(|(k, _)| k == "PARFAIT_CACHE_DIR"));
        assert_eq!(back.metrics.counter_total("certcache_disk_hit"), 4);
    }

    #[test]
    fn manifests_without_a_core_count_still_parse() {
        let manifest = RunManifest::capture("bench_fps", 2, 0, &Metrics::new());
        let Json::Obj(fields) = manifest.to_json() else { panic!("a manifest is an object") };
        let with_core_count = |value: Option<Json>| {
            let mut fields = fields.clone();
            fields.retain(|(k, _)| k != "available_parallelism");
            fields.extend(value.map(|v| ("available_parallelism".to_string(), v)));
            RunManifest::from_json(&Json::Obj(fields))
        };
        let back = with_core_count(None).expect("a manifest written before the field parses");
        assert_eq!(back, RunManifest { available_parallelism: None, ..manifest });
        assert!(with_core_count(Some(Json::str("two"))).is_err(), "a malformed count is loud");
    }

    #[test]
    fn build_id_names_version_and_profile() {
        let id = build_id();
        assert!(id.starts_with("parfait-"), "{id}");
        assert!(id.ends_with("-debug") || id.ends_with("-release"), "{id}");
    }
}
