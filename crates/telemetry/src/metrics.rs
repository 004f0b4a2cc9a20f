//! parfait-observatory: the process-wide metrics registry.
//!
//! Where [`crate::Telemetry`] streams *events* (spans, heartbeats) to a
//! sink as they happen, this module accumulates every *aggregate* —
//! atomic counters, gauges, and log2-bucketed histograms — that any
//! subsystem can bump at any time and any bin can snapshot at exit.
//! It is the one counting API: a fact worth a number is recorded here.
//!
//! A snapshot serializes as **canonical JSON**
//! ([`MetricsSnapshot::to_json`]), the one snapshot format: it is
//! embedded in every [`crate::manifest::RunManifest`] (so each
//! `BENCH_*.json` row carries its provenance) and in the serve daemon's
//! `metrics` frames. [`MetricsSnapshot::from_json`] is its exact
//! inverse; round-tripping is tested, which is what lets CI treat the
//! emitted snapshot as a machine contract rather than a log.
//!
//! Metrics are identified by a name plus a (possibly empty) sorted
//! label set, e.g. `certcache_disk_hit{stage="fps"}`. Handles returned
//! by [`Metrics::counter`]/[`gauge`](Metrics::gauge)/
//! [`histogram`](Metrics::histogram) are clones of the underlying
//! atomic, so hot paths pay one registry lookup once and then a single
//! `fetch_add` per event — no lock, no allocation.
//!
//! Most code uses the shared [`Metrics::global`] registry (one process,
//! one account of what it did); tests that need *exact* totals under
//! concurrency construct their own [`Metrics::new`] and inject it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::json::Json;

/// A metric identity: name plus sorted `(key, value)` labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, sorted by key. Values are arbitrary UTF-8.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A monotonic counter handle (clone of the registry's atomic).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous-value handle; stores `f64` bits in an atomic.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i >= 1`
/// holds `[2^(i-1), 2^i)`, and bucket 64 holds `[2^63, u64::MAX]`.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of a value.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
pub fn bucket_le(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram handle.
///
/// Values are unitless `u64`s; latency users record microseconds
/// ([`Histogram::record_duration`]). Buckets double, so the relative
/// error of any reconstructed quantile is bounded by 2× — plenty for
/// "where did the cold seconds go" questions, at the cost of 65 atomics.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a sum overflow must not wrap into a plausible lie.
        let mut cur = self.0.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self.0.sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<HistCore>),
}

/// The registry: a clonable handle onto a shared metric table.
///
/// Cloning is cheap (`Arc`); all clones see one table. Use
/// [`Metrics::global`] for production accounting and [`Metrics::new`]
/// for isolated test registries.
#[derive(Clone, Default)]
pub struct Metrics(Arc<Mutex<BTreeMap<MetricKey, Slot>>>);

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Metrics {
        static GLOBAL: OnceLock<Metrics> = OnceLock::new();
        GLOBAL.get_or_init(Metrics::new)
    }

    /// Counter handle for `name` with no labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Counter handle for `name` with labels.
    ///
    /// Panics if the key is already registered as a different metric
    /// type — one name, one meaning.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut table = self.0.lock().unwrap();
        match table.entry(key).or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0)))) {
            Slot::Counter(a) => Counter(a.clone()),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gauge handle for `name` with no labels.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gauge handle for `name` with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut table = self.0.lock().unwrap();
        match table
            .entry(key)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        {
            Slot::Gauge(a) => Gauge(a.clone()),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Histogram handle for `name` with no labels.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Histogram handle for `name` with labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut table = self.0.lock().unwrap();
        match table.entry(key).or_insert_with(|| {
            Slot::Hist(Arc::new(HistCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        }) {
            Slot::Hist(h) => Histogram(h.clone()),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// A consistent point-in-time copy of every registered metric.
    /// (Consistent per metric: each atomic is read once; the snapshot
    /// is not a cross-metric transaction.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        let table = self.0.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (key, slot) in table.iter() {
            match slot {
                Slot::Counter(a) => {
                    snap.counters.push((key.clone(), a.load(Ordering::Relaxed)));
                }
                Slot::Gauge(a) => {
                    snap.gauges.push((key.clone(), f64::from_bits(a.load(Ordering::Relaxed))));
                }
                Slot::Hist(h) => {
                    let buckets: Vec<(usize, u64)> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, b)| (i, b.load(Ordering::Relaxed)))
                        .filter(|&(_, n)| n > 0)
                        .collect();
                    snap.hists.push((
                        key.clone(),
                        HistSnapshot {
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                            buckets,
                        },
                    ));
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").field("metrics", &self.0.lock().unwrap().len()).finish()
    }
}

/// Frozen histogram state: sparse `(bucket index, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

/// A frozen copy of a [`Metrics`] registry, ready to serialize.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values, sorted by key.
    pub gauges: Vec<(MetricKey, f64)>,
    /// Histogram states, sorted by key.
    pub hists: Vec<(MetricKey, HistSnapshot)>,
}

/// Schema version of the snapshot JSON encoding.
pub const SNAPSHOT_SCHEMA: i64 = 1;

fn key_to_json(key: &MetricKey) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::str(&key.name)),
        (
            "labels".into(),
            Json::Arr(
                key.labels
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::str(k), Json::str(v)]))
                    .collect(),
            ),
        ),
    ]
}

fn key_from_json(j: &Json) -> Option<MetricKey> {
    let name = j.get("name")?.as_str()?.to_string();
    let mut labels = Vec::new();
    for pair in j.get("labels")?.as_array()? {
        let kv = pair.as_array()?;
        if kv.len() != 2 {
            return None;
        }
        labels.push((kv[0].as_str()?.to_string(), kv[1].as_str()?.to_string()));
    }
    Some(MetricKey { name, labels })
}

impl MetricsSnapshot {
    /// Total of a counter, summed over every label set of `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| v).sum()
    }

    /// Value of an exact counter key, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.counters.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Value of an exact gauge key, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Histogram state of an exact key, if present.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistSnapshot> {
        let key = MetricKey::new(name, labels);
        self.hists.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Whether any metric (of any type) starts with `prefix` — the key
    /// families CI asserts on.
    pub fn has_family(&self, prefix: &str) -> bool {
        self.counters.iter().map(|(k, _)| &k.name).any(|n| n.starts_with(prefix))
            || self.gauges.iter().map(|(k, _)| &k.name).any(|n| n.starts_with(prefix))
            || self.hists.iter().map(|(k, _)| &k.name).any(|n| n.starts_with(prefix))
    }

    /// Canonical JSON encoding: keys in sorted order, sparse histogram
    /// buckets. Two equal snapshots always render to identical bytes.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let mut f = key_to_json(k);
                f.push(("value".into(), Json::Int(*v as i64)));
                Json::Obj(f)
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| {
                let mut f = key_to_json(k);
                f.push(("value".into(), Json::Num(*v)));
                Json::Obj(f)
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, h)| {
                let mut f = key_to_json(k);
                f.push(("count".into(), Json::Int(h.count as i64)));
                f.push(("sum".into(), Json::Int(h.sum as i64)));
                f.push((
                    "buckets".into(),
                    Json::Arr(
                        h.buckets
                            .iter()
                            .map(|&(i, n)| {
                                Json::Arr(vec![Json::Int(i as i64), Json::Int(n as i64)])
                            })
                            .collect(),
                    ),
                ));
                Json::Obj(f)
            })
            .collect();
        Json::obj([
            ("schema", Json::Int(SNAPSHOT_SCHEMA)),
            ("counters", Json::Arr(counters)),
            ("gauges", Json::Arr(gauges)),
            ("histograms", Json::Arr(hists)),
        ])
    }

    /// Parse the [`to_json`](Self::to_json) encoding.
    pub fn from_json(j: &Json) -> Result<MetricsSnapshot, String> {
        if j.get("schema").and_then(|v| v.as_i64()) != Some(SNAPSHOT_SCHEMA) {
            return Err("metrics snapshot: missing or unsupported schema".into());
        }
        let arr = |field: &str| -> Result<&[Json], String> {
            j.get(field)
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("metrics snapshot: missing {field} array"))
        };
        let mut snap = MetricsSnapshot::default();
        for c in arr("counters")? {
            let key = key_from_json(c).ok_or("metrics snapshot: malformed counter key")?;
            let v = c
                .get("value")
                .and_then(|v| v.as_i64())
                .ok_or("metrics snapshot: malformed counter value")?;
            snap.counters.push((key, v as u64));
        }
        for g in arr("gauges")? {
            let key = key_from_json(g).ok_or("metrics snapshot: malformed gauge key")?;
            let v = g
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or("metrics snapshot: malformed gauge value")?;
            snap.gauges.push((key, v));
        }
        for h in arr("histograms")? {
            let key = key_from_json(h).ok_or("metrics snapshot: malformed histogram key")?;
            let count = h
                .get("count")
                .and_then(|v| v.as_i64())
                .ok_or("metrics snapshot: malformed histogram count")?;
            let sum = h
                .get("sum")
                .and_then(|v| v.as_i64())
                .ok_or("metrics snapshot: malformed histogram sum")?;
            let mut buckets = Vec::new();
            for b in h
                .get("buckets")
                .and_then(|v| v.as_array())
                .ok_or("metrics snapshot: malformed histogram buckets")?
            {
                let pair = b.as_array().ok_or("metrics snapshot: malformed bucket")?;
                let (Some(i), Some(n)) =
                    (pair.first().and_then(|v| v.as_i64()), pair.get(1).and_then(|v| v.as_i64()))
                else {
                    return Err("metrics snapshot: malformed bucket pair".into());
                };
                if !(0..HIST_BUCKETS as i64).contains(&i) {
                    return Err(format!("metrics snapshot: bucket index {i} out of range"));
                }
                buckets.push((i as usize, n as u64));
            }
            snap.hists.push((key, HistSnapshot { count: count as u64, sum: sum as u64, buckets }));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_cover_zero_one_powers_and_max() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Boundaries and indices are inverse: le(i) is the largest
        // value that lands in bucket i, and le(i)+1 lands in i+1.
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_le(i)), i, "le({i}) maps back");
            if i + 1 < HIST_BUCKETS {
                assert_eq!(bucket_index(bucket_le(i) + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_records_into_expected_buckets() {
        let m = Metrics::new();
        let h = m.histogram("t_us");
        for v in [0, 1, 1, 3, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = m.snapshot();
        let hs = snap.hist("t_us", &[]).unwrap();
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (2, 1), (11, 1), (64, 1)]);
    }

    #[test]
    fn counters_and_gauges_snapshot_exactly() {
        let m = Metrics::new();
        m.counter_with("hits", &[("stage", "fps")]).add(3);
        m.counter_with("hits", &[("stage", "lockstep")]).inc();
        m.gauge("rate").set(2.5e6);
        let snap = m.snapshot();
        assert_eq!(snap.counter("hits", &[("stage", "fps")]), Some(3));
        assert_eq!(snap.counter("hits", &[("stage", "lockstep")]), Some(1));
        assert_eq!(snap.counter_total("hits"), 4);
        assert_eq!(snap.gauge("rate", &[]), Some(2.5e6));
    }

    #[test]
    fn handles_are_live_and_shared() {
        let m = Metrics::new();
        let a = m.counter("n");
        let b = m.counter("n");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let m = Metrics::new();
        m.counter("x");
        m.gauge("x");
    }

    fn demo_snapshot() -> MetricsSnapshot {
        let m = Metrics::new();
        m.counter_with("certcache_disk_hit", &[("stage", "fps")]).add(5);
        m.counter("pool_tasks_spawned_total").add(42);
        m.gauge("fps_cycles_per_second").set(8.125e6);
        m.gauge_with("g2", &[("worker", "1")]).set(-0.5);
        let h = m.histogram_with("pipeline_stage_wall_us", &[("stage", "fps")]);
        for v in [0, 1, 5, 5, 900, 1 << 40, u64::MAX] {
            h.record(v);
        }
        m.snapshot()
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = demo_snapshot();
        let text = snap.to_json().to_string();
        let back = MetricsSnapshot::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        // Canonical: equal snapshots render to identical bytes.
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn global_registry_is_one_instance() {
        Metrics::global().counter("telemetry_test_global_probe").inc();
        let snap = Metrics::global().snapshot();
        assert!(snap.counter_total("telemetry_test_global_probe") >= 1);
    }
}
