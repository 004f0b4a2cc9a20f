//! The on-disk certificate cache.
//!
//! Keys are `"{stage}-{inputs}"` where `inputs` is the hex
//! [`ArtifactId`](crate::artifact::ArtifactId) over every stage input —
//! so a hit means "this exact stage already ran on these exact inputs",
//! and a stale hit requires a SHA-256 collision (DESIGN.md §9). Values
//! are pretty-printed certificate JSON (`*.cert.json`), human-greppable
//! on disk; lookups re-verify stage, schema, and input hash and treat
//! any mismatch or corruption as a miss (the rejected file is unlinked
//! eagerly, so a poisoned entry costs one re-verification, not one per
//! process until somebody rewrites it).
//!
//! The cache directory comes from `PARFAIT_CACHE_DIR`; without it the
//! cache degrades to per-process memoization, so a single `verify` run
//! still shares work across its matrix cells.
//!
//! ## Concurrency (DESIGN.md §17)
//!
//! The cache is built to be hammered by many threads at once — the
//! `parfait-serve` daemon points every connection at one shared store:
//!
//! - **Sharding.** State is split per stage kind (one shard each), so
//!   FPS lookups never contend with speccheck lookups. Each shard's
//!   memo is behind an [`RwLock`]: the hot read path takes a shared
//!   lock only, and writers of one shard never block readers of
//!   another.
//! - **Single-flight.** [`CertCache::claim`] collapses N concurrent
//!   requests for the same cold key into one computation: the first
//!   claimant becomes the *leader* (and must [`Flight::complete`] or
//!   [`Flight::fail`]), the other N−1 block on the flight and receive
//!   the leader's certificate — or its error — without re-running the
//!   stage. An abandoned flight (leader panicked) fails its waiters
//!   instead of wedging them.
//! - **Crash discipline.** Disk writes keep the temp + rename scheme,
//!   so a concurrent (or crash-interrupted) writer never publishes a
//!   partial certificate: readers see the old file, the new file, or
//!   no file — all safe.
//! - **Tenant namespaces.** [`CertCache::namespaced`] scopes a handle
//!   to one tenant: disk entries live under `root/{tenant}/` and memo
//!   keys carry the tenant prefix, so tenants sharing one daemon never
//!   observe each other's certificates (isolation argument in
//!   DESIGN.md §17).
//!
//! Every lookup and store lands in a [`Metrics`] ledger, per stage
//! kind: `certcache_memory_hit`, `certcache_disk_hit`,
//! `certcache_miss`, `certcache_corrupt_discard` (a present-but-
//! rejected file, also counted as a miss), `certcache_write`,
//! `certcache_write_error`, and `certcache_singleflight_wait` (a
//! claimant that joined another thread's in-flight computation).
//! Namespaced handles additionally bump
//! `certcache_tenant_total{tenant,outcome}`, the per-tenant hit-rate
//! feed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use parfait_telemetry::metrics::Metrics;

use crate::artifact::ArtifactId;
use crate::certificate::{StageCertificate, StageKind, SCHEMA};

/// One stage kind's slice of the cache: its memoized certificates and
/// its in-flight computations.
struct Shard {
    memo: RwLock<HashMap<String, StageCertificate>>,
    flights: Mutex<HashMap<String, Arc<FlightState>>>,
}

impl Shard {
    fn new() -> Shard {
        Shard { memo: RwLock::new(HashMap::new()), flights: Mutex::new(HashMap::new()) }
    }
}

/// Outcome slot a [`Flight`]'s waiters block on.
struct FlightState {
    done: Mutex<Option<Result<StageCertificate, String>>>,
    cv: Condvar,
}

/// The shared core every handle (root or namespaced) points at.
struct CacheInner {
    root: Option<PathBuf>,
    shards: [Shard; StageKind::ALL.len()],
    metrics: Metrics,
}

/// A two-tier (in-memory + optional on-disk) certificate store.
///
/// Handles are cheap clones of one shared store; [`namespaced`]
/// (CertCache::namespaced) handles scope lookups and stores to one
/// tenant.
#[derive(Clone)]
pub struct CertCache {
    inner: Arc<CacheInner>,
    /// Tenant namespace (`None` = the root cache).
    tenant: Option<String>,
    /// Resolved directory: root, or `root/{tenant}` for a namespaced
    /// handle. `None` when the cache is memoization-only.
    dir: Option<PathBuf>,
}

/// The outcome of [`CertCache::claim`].
pub enum Claim {
    /// The certificate is available: a memo hit, a disk hit, or the
    /// result of another thread's flight this claim joined.
    Ready(StageCertificate),
    /// This claimant is the leader: it must run the stage and then
    /// [`Flight::complete`] (or [`Flight::fail`]) the flight.
    Leader(Flight),
    /// The claim joined a flight whose leader failed; the error is the
    /// leader's (already `[stage]`-prefixed by the pipeline).
    Failed(String),
}

/// The leader's obligation for one in-flight cache key: exactly one of
/// [`complete`](Flight::complete) or [`fail`](Flight::fail). Dropping
/// an unfinished flight fails it (panic safety: waiters get an error,
/// not a deadlock).
pub struct Flight {
    inner: Arc<CacheInner>,
    dir: Option<PathBuf>,
    stage: StageKind,
    memo_key: String,
    state: Arc<FlightState>,
    finished: bool,
}

impl CertCache {
    /// The cache at `PARFAIT_CACHE_DIR`, or memoization-only when the
    /// variable is unset. The directory is created on first use; an
    /// uncreatable or unwritable directory is a hard error (a silently
    /// disabled cache would defeat the observable cold/warm contract).
    pub fn from_env() -> CertCache {
        match parfait_telemetry::env::cache_dir_loud() {
            Some(dir) => CertCache::at(dir),
            None => CertCache::disabled(),
        }
    }

    /// A cache rooted at an explicit directory, accounting to the
    /// process-wide registry.
    pub fn at(dir: PathBuf) -> CertCache {
        CertCache::at_with(dir, Metrics::global().clone())
    }

    /// [`at`](Self::at) accounting to an explicit registry (tests
    /// inject an isolated [`Metrics`] for exact ledger assertions).
    pub fn at_with(dir: PathBuf, metrics: Metrics) -> CertCache {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: cannot create cache directory {}: {e}", dir.display());
            std::process::exit(2);
        }
        // Probe writability up front: a read-only cache dir must fail
        // loudly here, not silently bypass every store() later.
        let probe = dir.join(format!(".parfait-probe.{}", std::process::id()));
        let probed = std::fs::write(&probe, b"probe").and_then(|()| std::fs::remove_file(&probe));
        if let Err(e) = probed {
            eprintln!("error: cache directory {} is not writable: {e}", dir.display());
            std::process::exit(2);
        }
        CertCache {
            inner: Arc::new(CacheInner {
                root: Some(dir.clone()),
                shards: std::array::from_fn(|_| Shard::new()),
                metrics,
            }),
            tenant: None,
            dir: Some(dir),
        }
    }

    /// Memoization-only (no disk persistence), accounting to the
    /// process-wide registry.
    pub fn disabled() -> CertCache {
        CertCache::disabled_with(Metrics::global().clone())
    }

    /// [`disabled`](Self::disabled) accounting to an explicit registry.
    pub fn disabled_with(metrics: Metrics) -> CertCache {
        CertCache {
            inner: Arc::new(CacheInner {
                root: None,
                shards: std::array::from_fn(|_| Shard::new()),
                metrics,
            }),
            tenant: None,
            dir: None,
        }
    }

    /// A handle scoped to `tenant`'s namespace of the same underlying
    /// store: disk entries live under `root/{tenant}/`, memo keys are
    /// tenant-prefixed, and the per-tenant ledger is bumped on every
    /// claim. Tenant names are path- and label-safe by construction:
    /// 1–64 ASCII alphanumerics, `-`, or `_`.
    pub fn namespaced(&self, tenant: &str) -> Result<CertCache, String> {
        if !valid_tenant(tenant) {
            return Err(format!("invalid tenant {tenant:?}: expected 1-64 chars of [A-Za-z0-9_-]"));
        }
        let dir = match &self.inner.root {
            Some(root) => {
                let dir = root.join(tenant);
                std::fs::create_dir_all(&dir).map_err(|e| {
                    format!("cannot create tenant directory {}: {e}", dir.display())
                })?;
                Some(dir)
            }
            None => None,
        };
        Ok(CertCache { inner: Arc::clone(&self.inner), tenant: Some(tenant.to_string()), dir })
    }

    /// The registry this cache's ledger lands in.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The tenant this handle is scoped to, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Bump one ledger counter for `stage`.
    fn ledger(&self, name: &str, stage: StageKind) {
        self.inner.metrics.counter_with(name, &[("stage", stage.as_str())]).inc();
    }

    /// Bump the per-tenant hit-rate ledger (namespaced handles only).
    fn tenant_ledger(&self, outcome: &str) {
        if let Some(t) = &self.tenant {
            self.inner
                .metrics
                .counter_with("certcache_tenant_total", &[("tenant", t), ("outcome", outcome)])
                .inc();
        }
    }

    /// Whether this cache persists across processes.
    pub fn persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// The directory, if persistent (the tenant subdirectory for a
    /// namespaced handle).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn key(stage: StageKind, inputs: ArtifactId) -> String {
        format!("{}-{}", stage.as_str(), inputs)
    }

    /// Memo keys carry the tenant prefix so namespaces never alias in
    /// the shared shard maps.
    fn memo_key(&self, key: &str) -> String {
        match &self.tenant {
            Some(t) => format!("{t}/{key}"),
            None => key.to_string(),
        }
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.cert.json")))
    }

    fn shard(&self, stage: StageKind) -> &Shard {
        &self.inner.shards[stage.index()]
    }

    /// Look up the certificate for a (stage, inputs) pair. Corrupt or
    /// mismatched entries are misses, never errors.
    pub fn lookup(&self, stage: StageKind, inputs: ArtifactId) -> Option<StageCertificate> {
        let key = Self::key(stage, inputs);
        let memo_key = self.memo_key(&key);
        if let Some(hit) = self.shard(stage).memo.read().unwrap().get(&memo_key) {
            self.ledger("certcache_memory_hit", stage);
            self.tenant_ledger("hit");
            return Some(hit.clone());
        }
        match self.lookup_disk(&key, stage, inputs) {
            DiskLookup::Hit(cert) => {
                self.ledger("certcache_disk_hit", stage);
                self.tenant_ledger("hit");
                self.shard(stage).memo.write().unwrap().insert(memo_key, cert.clone());
                Some(cert)
            }
            DiskLookup::Absent => {
                self.ledger("certcache_miss", stage);
                self.tenant_ledger("miss");
                None
            }
            DiskLookup::Corrupt => {
                // A present-but-rejected file: its own ledger line, and
                // still a miss from the caller's point of view.
                self.ledger("certcache_corrupt_discard", stage);
                self.ledger("certcache_miss", stage);
                self.tenant_ledger("miss");
                None
            }
        }
    }

    fn lookup_disk(&self, key: &str, stage: StageKind, inputs: ArtifactId) -> DiskLookup {
        let Some(path) = self.path(key) else {
            return DiskLookup::Absent;
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return DiskLookup::Absent;
        };
        let cert = parfait_telemetry::json::parse(&text)
            .ok()
            .and_then(|json| StageCertificate::from_json(&json));
        match cert {
            // Re-verify the name→content binding: a renamed, truncated,
            // or hand-edited file must not satisfy a different query.
            Some(cert) if cert.stage == stage && cert.inputs == inputs && cert.schema == SCHEMA => {
                DiskLookup::Hit(cert)
            }
            _ => {
                // Unlink the rejected file eagerly: leaving it on disk
                // would re-run the stage in *every* process until some
                // writer happened to replace it. Removal races with a
                // concurrent rewrite are benign (the rewrite is
                // temp+rename; at worst we unlink the fresh file and
                // the next run recomputes once more).
                let _ = std::fs::remove_file(&path);
                DiskLookup::Corrupt
            }
        }
    }

    /// Claim a (stage, inputs) pair for computation, with single-flight
    /// collapsing: concurrent claims of one cold key elect exactly one
    /// [`Claim::Leader`]; the rest block and receive the leader's
    /// outcome. A claim on a warm key returns [`Claim::Ready`]
    /// immediately.
    pub fn claim(&self, stage: StageKind, inputs: ArtifactId) -> Claim {
        let key = Self::key(stage, inputs);
        let memo_key = self.memo_key(&key);
        let shard = self.shard(stage);
        if let Some(hit) = shard.memo.read().unwrap().get(&memo_key) {
            self.ledger("certcache_memory_hit", stage);
            self.tenant_ledger("hit");
            return Claim::Ready(hit.clone());
        }
        // Slow path: join an existing flight, or open one. The flights
        // lock is held only to consult/update the map — never across
        // disk IO or a stage run.
        let state = {
            let mut flights = shard.flights.lock().unwrap();
            if let Some(state) = flights.get(&memo_key) {
                Arc::clone(state)
            } else {
                // Re-check the memo under the flights lock: a flight
                // that completed between our memo read and this lock
                // has already been removed from the map, and its result
                // lives only in the memo.
                if let Some(hit) = shard.memo.read().unwrap().get(&memo_key) {
                    self.ledger("certcache_memory_hit", stage);
                    self.tenant_ledger("hit");
                    return Claim::Ready(hit.clone());
                }
                let state = Arc::new(FlightState { done: Mutex::new(None), cv: Condvar::new() });
                flights.insert(memo_key.clone(), Arc::clone(&state));
                drop(flights);
                // This claimant leads. Probe the disk before running:
                // a cross-process warm hit completes the flight
                // instantly for any waiter that piled up meanwhile.
                let flight = Flight {
                    inner: Arc::clone(&self.inner),
                    dir: self.dir.clone(),
                    stage,
                    memo_key,
                    state,
                    finished: false,
                };
                return match self.lookup_disk(&key, stage, inputs) {
                    DiskLookup::Hit(cert) => {
                        self.ledger("certcache_disk_hit", stage);
                        self.tenant_ledger("hit");
                        flight.publish(Ok(cert.clone()), false);
                        Claim::Ready(cert)
                    }
                    DiskLookup::Absent => {
                        self.ledger("certcache_miss", stage);
                        self.tenant_ledger("miss");
                        Claim::Leader(flight)
                    }
                    DiskLookup::Corrupt => {
                        self.ledger("certcache_corrupt_discard", stage);
                        self.ledger("certcache_miss", stage);
                        self.tenant_ledger("miss");
                        Claim::Leader(flight)
                    }
                };
            }
        };
        // Waiter: block until the leader publishes.
        self.ledger("certcache_singleflight_wait", stage);
        let mut done = state.done.lock().unwrap();
        while done.is_none() {
            done = state.cv.wait(done).unwrap();
        }
        match done.as_ref().expect("loop exits only when set") {
            Ok(cert) => {
                self.tenant_ledger("hit");
                Claim::Ready(cert.clone())
            }
            Err(e) => {
                self.tenant_ledger("miss");
                Claim::Failed(e.clone())
            }
        }
    }

    /// Store a freshly computed certificate. Disk writes go through a
    /// temp file + rename so concurrent verifiers never observe a
    /// partial certificate; write failures are reported but non-fatal
    /// (the verification result itself is unaffected).
    pub fn store(&self, cert: &StageCertificate) {
        let key = Self::key(cert.stage, cert.inputs);
        store_parts(&self.inner, &self.path(&key), &self.memo_key(&key), cert);
    }
}

/// The store implementation shared by [`CertCache::store`] and
/// [`Flight::complete`] (which must not borrow a `CertCache`).
fn store_parts(
    inner: &CacheInner,
    path: &Option<PathBuf>,
    memo_key: &str,
    cert: &StageCertificate,
) {
    if let Some(path) = path {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let text = cert.to_json().to_pretty_string() + "\n";
        let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
        match written {
            Ok(()) => inner
                .metrics
                .counter_with("certcache_write", &[("stage", cert.stage.as_str())])
                .inc(),
            Err(e) => {
                inner
                    .metrics
                    .counter_with("certcache_write_error", &[("stage", cert.stage.as_str())])
                    .inc();
                eprintln!("warning: cache write failed for {}: {e}", path.display());
            }
        }
    }
    inner.shards[cert.stage.index()]
        .memo
        .write()
        .unwrap()
        .insert(memo_key.to_string(), cert.clone());
}

impl Flight {
    /// Publish the leader's outcome: store (on success), wake every
    /// waiter, and retire the flight. `store` is false only for the
    /// disk-hit fast path, where the certificate is already on disk.
    fn publish(mut self, outcome: Result<StageCertificate, String>, store: bool) {
        if let Ok(cert) = &outcome {
            if store {
                store_parts(&self.inner, &self.dir_path(), &self.memo_key, cert);
            } else {
                self.inner.shards[self.stage.index()]
                    .memo
                    .write()
                    .unwrap()
                    .insert(self.memo_key.clone(), cert.clone());
            }
        }
        let shard = &self.inner.shards[self.stage.index()];
        shard.flights.lock().unwrap().remove(&self.memo_key);
        *self.state.done.lock().unwrap() = Some(outcome);
        self.state.cv.notify_all();
        self.finished = true;
    }

    fn dir_path(&self) -> Option<PathBuf> {
        // memo_key is "{tenant}/{key}" or "{key}"; the file name is
        // derived from the bare key.
        let key = self.memo_key.rsplit('/').next().expect("split is non-empty");
        self.dir.as_ref().map(|d| d.join(format!("{key}.cert.json")))
    }

    /// The stage ran: store the certificate and release the waiters.
    pub fn complete(self, cert: &StageCertificate) {
        self.publish(Ok(cert.clone()), true);
    }

    /// The stage failed: propagate `err` (verbatim) to every waiter.
    pub fn fail(self, err: &str) {
        self.publish(Err(err.to_string()), true);
    }
}

impl Drop for Flight {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // The leader unwound without publishing (a panic inside the
        // stage run): fail the waiters rather than wedging them, and
        // retire the flight so the key stays retryable.
        let shard = &self.inner.shards[self.stage.index()];
        shard.flights.lock().unwrap().remove(&self.memo_key);
        *self.state.done.lock().unwrap() =
            Some(Err("stage computation abandoned (leader panicked)".to_string()));
        self.state.cv.notify_all();
    }
}

/// Whether `tenant` is a usable namespace name: 1–64 ASCII
/// alphanumerics, `-`, or `_` (path- and metric-label-safe, no
/// separators, no traversal).
pub fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Outcome of a disk probe inside [`CertCache::lookup`].
enum DiskLookup {
    Hit(StageCertificate),
    /// No directory, or no file for this key.
    Absent,
    /// A file existed but failed parse or re-verification (and was
    /// eagerly unlinked).
    Corrupt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactHasher;

    fn cert(tag: &str) -> StageCertificate {
        StageCertificate {
            schema: SCHEMA,
            stage: StageKind::Lockstep,
            app: "t".into(),
            claim: ("app-spec".into(), "app-impl-lowstar".into()),
            inputs: ArtifactHasher::new("cache-test").field_str("tag", tag).finish(),
            stats: vec![("cases".into(), 3)],
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("parfait-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn memo_only_hits_within_process() {
        let cache = CertCache::disabled();
        let c = cert("memo");
        assert!(cache.lookup(c.stage, c.inputs).is_none());
        cache.store(&c);
        assert_eq!(cache.lookup(c.stage, c.inputs), Some(c));
    }

    #[test]
    fn disk_cache_survives_a_fresh_handle_and_rejects_corruption() {
        let dir = temp_dir("cert-cache");
        let c = cert("disk");
        CertCache::at(dir.clone()).store(&c);

        // A brand-new handle (fresh memo) must hit from disk...
        let cache = CertCache::at(dir.clone());
        assert_eq!(cache.lookup(c.stage, c.inputs), Some(c.clone()));
        // ...but never satisfy a different query.
        let other = cert("other");
        assert!(cache.lookup(other.stage, other.inputs).is_none());
        assert!(cache.lookup(StageKind::Fps, c.inputs).is_none());

        // Corrupt the file under a *fresh* handle: miss, not error —
        // and the poisoned file is unlinked eagerly, so the *next*
        // fresh handle doesn't pay the corrupt-discard again.
        let file = dir.join(format!("lockstep-{}.cert.json", c.inputs));
        std::fs::write(&file, "{ not json").unwrap();
        assert!(CertCache::at(dir.clone()).lookup(c.stage, c.inputs).is_none());
        assert!(!file.exists(), "corrupt cert file must be unlinked on discard");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_counts_every_outcome() {
        let dir = temp_dir("cert-ledger");
        let c = cert("ledger");
        let stage_label = [("stage", c.stage.as_str())];

        let metrics = Metrics::new();
        let cache = CertCache::at_with(dir.clone(), metrics.clone());
        assert!(cache.lookup(c.stage, c.inputs).is_none()); // miss
        cache.store(&c); // write
        assert!(cache.lookup(c.stage, c.inputs).is_some()); // memory hit

        // Fresh handle on the same registry: disk hit, then corrupt.
        let cache2 = CertCache::at_with(dir.clone(), metrics.clone());
        assert!(cache2.lookup(c.stage, c.inputs).is_some()); // disk hit
        let file = dir.join(format!("{}-{}.cert.json", c.stage.as_str(), c.inputs));
        std::fs::write(&file, "{ not json").unwrap();
        let cache3 = CertCache::at_with(dir.clone(), metrics.clone());
        assert!(cache3.lookup(c.stage, c.inputs).is_none()); // corrupt discard

        let snap = metrics.snapshot();
        assert_eq!(snap.counter("certcache_miss", &stage_label), Some(2), "cold + corrupt");
        assert_eq!(snap.counter("certcache_write", &stage_label), Some(1));
        assert_eq!(snap.counter("certcache_memory_hit", &stage_label), Some(1));
        assert_eq!(snap.counter("certcache_disk_hit", &stage_label), Some(1));
        assert_eq!(snap.counter("certcache_corrupt_discard", &stage_label), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn claim_elects_one_leader_and_waiters_share_the_result() {
        let metrics = Metrics::new();
        let cache = CertCache::disabled_with(metrics.clone());
        let c = cert("flight");

        let Claim::Leader(flight) = cache.claim(c.stage, c.inputs) else {
            panic!("cold claim must lead");
        };
        // Concurrent claimants join the flight and block until the
        // leader completes.
        let joined = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = cache.clone();
                    let c = c.clone();
                    s.spawn(move || match cache.claim(c.stage, c.inputs) {
                        Claim::Ready(got) => got,
                        _ => panic!("waiters must receive the leader's certificate"),
                    })
                })
                .collect();
            // Give the waiters a moment to register, then publish.
            std::thread::sleep(std::time::Duration::from_millis(20));
            flight.complete(&c);
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        assert!(joined.iter().all(|got| *got == c));
        // After the flight, the key is warm.
        assert!(matches!(cache.claim(c.stage, c.inputs), Claim::Ready(_)));
        let snap = metrics.snapshot();
        let label = [("stage", c.stage.as_str())];
        assert_eq!(snap.counter("certcache_miss", &label), Some(1), "exactly one leader ran");
        assert_eq!(snap.counter("certcache_singleflight_wait", &label), Some(4));
    }

    #[test]
    fn failed_and_abandoned_flights_release_waiters_and_stay_retryable() {
        let cache = CertCache::disabled();
        let c = cert("flight-fail");

        // fail(): the waiter sees the leader's error verbatim.
        let Claim::Leader(flight) = cache.claim(c.stage, c.inputs) else { panic!("leads") };
        let waiter = {
            let cache = cache.clone();
            let c = c.clone();
            std::thread::spawn(move || cache.claim(c.stage, c.inputs))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        flight.fail("[lockstep] seeded failure");
        match waiter.join().unwrap() {
            Claim::Failed(e) => assert_eq!(e, "[lockstep] seeded failure"),
            _ => panic!("waiter must see the leader's failure"),
        }

        // The failure is not sticky: the key can be claimed again...
        let Claim::Leader(flight) = cache.claim(c.stage, c.inputs) else {
            panic!("failed keys must stay retryable");
        };
        // ...and an abandoned (dropped) flight also releases waiters.
        let waiter = {
            let cache = cache.clone();
            let c = c.clone();
            std::thread::spawn(move || cache.claim(c.stage, c.inputs))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(flight);
        match waiter.join().unwrap() {
            Claim::Failed(e) => assert!(e.contains("abandoned"), "{e}"),
            _ => panic!("abandoned flights must fail their waiters"),
        }
        // And a successful retry completes normally.
        let Claim::Leader(flight) = cache.claim(c.stage, c.inputs) else { panic!("retries") };
        flight.complete(&c);
        assert!(matches!(cache.claim(c.stage, c.inputs), Claim::Ready(_)));
    }

    #[test]
    fn tenants_are_isolated_on_disk_and_in_memo() {
        let dir = temp_dir("cert-tenants");
        let metrics = Metrics::new();
        let root = CertCache::at_with(dir.clone(), metrics.clone());
        let ta = root.namespaced("tenant-a").unwrap();
        let tb = root.namespaced("tenant-b").unwrap();
        let c = cert("tenant");

        ta.store(&c);
        // Same key, other tenant: a miss, in-process and on disk.
        assert_eq!(ta.lookup(c.stage, c.inputs), Some(c.clone()));
        assert!(tb.lookup(c.stage, c.inputs).is_none());
        assert!(root.lookup(c.stage, c.inputs).is_none(), "root never sees tenant entries");
        // The file lives under the tenant subdirectory.
        let file = dir.join("tenant-a").join(format!("lockstep-{}.cert.json", c.inputs));
        assert!(file.exists());
        // A fresh handle hits tenant-a's entry from disk, still scoped.
        let fresh = CertCache::at_with(dir.clone(), Metrics::new());
        assert_eq!(
            fresh.namespaced("tenant-a").unwrap().lookup(c.stage, c.inputs),
            Some(c.clone())
        );
        assert!(fresh.namespaced("tenant-b").unwrap().lookup(c.stage, c.inputs).is_none());
        // Per-tenant ledger: hits and misses are attributed.
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("certcache_tenant_total", &[("outcome", "hit"), ("tenant", "tenant-a")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("certcache_tenant_total", &[("outcome", "miss"), ("tenant", "tenant-b")]),
            Some(1)
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_names_are_validated() {
        let cache = CertCache::disabled();
        for ok in ["a", "tenant-a", "T0_b", &"x".repeat(64)] {
            assert!(cache.namespaced(ok).is_ok(), "{ok:?} should be accepted");
        }
        for bad in ["", "a/b", "..", "a b", "café", &"x".repeat(65), "a\nb"] {
            assert!(cache.namespaced(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
