//! parfait-parallel — a zero-dependency scoped work-stealing thread
//! pool for the verification pipeline.
//!
//! The workspace rule is "no external dependencies", so this is built
//! entirely on `std`: [`scope`] creates a pool of worker threads inside
//! a [`std::thread::scope`], which lets jobs borrow from the caller's
//! stack (pipelines, apps, configuration) without `'static` bounds or
//! reference counting. Each worker owns a deque; [`Pool::spawn`] pushes
//! to the least recently used deque, a worker pops its own deque LIFO
//! (cache-warm), and an idle worker steals FIFO from a victim (oldest
//! job first, the classic stealing discipline). Jobs here are coarse —
//! whole stage-graph nodes, mutants or case studies, milliseconds to
//! minutes each — so the queues share one mutex; the stealing structure
//! is about load balance, not about shaving nanoseconds off `push`.
//!
//! A one-thread scope spawns no worker: [`Pool::spawn`] runs each job
//! on the calling thread before it returns, in spawn order, so a
//! width-1 stage graph costs no thread start and no hand-offs.
//!
//! Panics inside jobs do not poison the pool: the first panic payload is
//! captured, remaining queued jobs still run, and the panic is resumed
//! on the caller's thread once the scope ends (mirroring
//! `std::thread::scope` semantics).

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use parfait_telemetry::metrics::{Counter, Metrics};

/// The parallelism degree to use when the user did not pick one: the
/// `PARFAIT_THREADS` environment variable if set and positive, else the
/// machine's available parallelism, else 1. A malformed value is a
/// hard error (stderr + exit 2, via [`parfait_telemetry::env`]).
pub fn default_threads() -> usize {
    parfait_telemetry::env::threads_loud()
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// A job: runs once on some worker, receiving that worker's index.
type Job<'env> = Box<dyn FnOnce(usize) + Send + 'env>;

struct State<'env> {
    /// One deque per worker; `spawn` round-robins across them.
    deques: Vec<VecDeque<Job<'env>>>,
    /// Next deque `spawn` pushes to.
    next: usize,
    /// Jobs spawned but not yet completed.
    pending: usize,
    /// Set once the owning scope is finished and drained.
    shutdown: bool,
    /// First captured panic payload from a job.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Time spent in jobs run on the calling thread (one-thread scopes).
    inline_busy_ns: u64,
}

struct Shared<'env> {
    state: Mutex<State<'env>>,
    /// Signaled on spawn (work available) and on completion (possibly
    /// idle) and on shutdown.
    cv: Condvar,
    /// Registry the pool accounts to, plus pre-resolved hot-path
    /// handles (`pool_tasks_spawned_total`, `pool_tasks_completed_total`,
    /// `pool_steals_total`; per-worker busy/idle nanos are accumulated
    /// locally and flushed once at worker exit).
    metrics: Metrics,
    spawned: Counter,
    completed: Counter,
    steals: Counter,
}

/// A scoped thread pool handle; obtained from [`scope`].
pub struct Pool<'env> {
    shared: Shared<'env>,
    threads: usize,
}

impl<'env> Pool<'env> {
    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs spawned but not yet completed — the queue-depth signal a
    /// long-running scheduler exports as a gauge. A snapshot, stale the
    /// moment it is read; use it for observability, never for control
    /// flow.
    pub fn pending(&self) -> usize {
        self.shared.state.lock().unwrap().pending
    }

    /// Submit a job. It may borrow anything that outlives the [`scope`]
    /// call and runs on some worker thread before `scope` returns — in
    /// a one-thread scope, on the calling thread before `spawn` returns.
    pub fn spawn(&self, job: impl FnOnce(usize) + Send + 'env) {
        if self.threads == 1 {
            self.shared.spawned.inc();
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| job(0)));
            let busy_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.shared.completed.inc();
            let mut st = self.shared.state.lock().expect("pool state lock poisoned");
            st.inline_busy_ns += busy_ns;
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        let slot = st.next % st.deques.len();
        st.next = st.next.wrapping_add(1);
        st.pending += 1;
        st.deques[slot].push_back(Box::new(job));
        drop(st);
        self.shared.spawned.inc();
        self.shared.cv.notify_all();
    }
}

impl<'env> Shared<'env> {
    /// Pop a job for worker `id`: own deque from the back (LIFO), else
    /// steal the oldest job of the most loaded victim (FIFO). The flag
    /// is true when the job was stolen.
    fn find_job(st: &mut State<'env>, id: usize) -> Option<(Job<'env>, bool)> {
        if let Some(job) = st.deques[id].pop_back() {
            return Some((job, false));
        }
        let victim = (0..st.deques.len())
            .filter(|&v| v != id && !st.deques[v].is_empty())
            .max_by_key(|&v| st.deques[v].len())?;
        st.deques[victim].pop_front().map(|job| (job, true))
    }

    fn worker_loop(&self, id: usize) {
        // Busy/idle nanos accumulate in locals — zero shared-state
        // traffic per job — and flush to the registry once at exit.
        let mut busy_ns = 0u64;
        let mut idle_ns = 0u64;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some((job, stolen)) = Self::find_job(&mut st, id) {
                drop(st);
                if stolen {
                    self.steals.inc();
                }
                let start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| job(id)));
                busy_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.completed.inc();
                st = self.state.lock().unwrap();
                st.pending -= 1;
                if let Err(payload) = result {
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
                self.cv.notify_all();
                continue;
            }
            if st.shutdown {
                break;
            }
            let start = Instant::now();
            st = self.cv.wait(st).unwrap();
            idle_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        drop(st);
        let worker = id.to_string();
        self.metrics.counter_with("pool_worker_busy_ns", &[("worker", &worker)]).add(busy_ns);
        self.metrics.counter_with("pool_worker_idle_ns", &[("worker", &worker)]).add(idle_ns);
    }
}

/// Run `f` with a pool of `threads` workers (clamped to at least 1).
/// Returns after every spawned job has completed and every worker has
/// exited. If any job panicked, the first panic is resumed here.
/// Accounts to the process-wide [`Metrics::global`] registry.
pub fn scope<'env, R>(threads: usize, f: impl FnOnce(&Pool<'env>) -> R) -> R {
    scope_with(threads, Metrics::global(), f)
}

/// [`scope`] accounting to an explicit registry — tests inject an
/// isolated [`Metrics`] to assert exact counter totals regardless of
/// what else the process is running.
pub fn scope_with<'env, R>(
    threads: usize,
    metrics: &Metrics,
    f: impl FnOnce(&Pool<'env>) -> R,
) -> R {
    let threads = threads.max(1);
    let pool = Pool {
        shared: Shared {
            state: Mutex::new(State {
                deques: (0..threads).map(|_| VecDeque::new()).collect(),
                next: 0,
                pending: 0,
                shutdown: false,
                panic: None,
                inline_busy_ns: 0,
            }),
            cv: Condvar::new(),
            metrics: metrics.clone(),
            spawned: metrics.counter("pool_tasks_spawned_total"),
            completed: metrics.counter("pool_tasks_completed_total"),
            steals: metrics.counter("pool_steals_total"),
        },
        threads,
    };
    let result = if threads == 1 {
        let r = f(&pool);
        let busy_ns = pool.shared.state.lock().expect("pool state lock poisoned").inline_busy_ns;
        metrics.counter_with("pool_worker_busy_ns", &[("worker", "0")]).add(busy_ns);
        metrics.counter_with("pool_worker_idle_ns", &[("worker", "0")]).add(0);
        r
    } else {
        std::thread::scope(|s| {
            for id in 0..threads {
                let shared = &pool.shared;
                s.spawn(move || shared.worker_loop(id));
            }
            let r = f(&pool);
            // Wait for the queues to drain, then release the workers.
            let mut st = pool.shared.state.lock().unwrap();
            while st.pending > 0 {
                st = pool.shared.cv.wait(st).unwrap();
            }
            st.shutdown = true;
            drop(st);
            pool.shared.cv.notify_all();
            r
        })
    };
    if let Some(payload) = pool.shared.state.lock().unwrap().panic.take() {
        resume_unwind(payload);
    }
    result
}

/// Apply `f` to every item on the pool, preserving input order in the
/// output. At most one worker per item: with one thread or one item the
/// items run in order on the caller's thread (the common oracle path).
pub fn parallel_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    scope(threads.min(items.len()), |pool| {
        for (i, item) in items.into_iter().enumerate() {
            let f = &f;
            let slots = &slots;
            pool.spawn(move |_w| {
                let out = f(i, item);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("job completed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_all_jobs_with_borrows() {
        let data: Vec<usize> = (0..100).collect();
        let sum = AtomicUsize::new(0);
        scope(4, |pool| {
            for chunk in data.chunks(7) {
                let sum = &sum;
                pool.spawn(move |_w| {
                    sum.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum());
    }

    #[test]
    fn parallel_map_preserves_order() {
        for threads in [1, 2, 8] {
            let out = parallel_map(threads, (0..50).collect(), |i, x: i32| {
                assert_eq!(i as i32, x);
                x * 2
            });
            assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_ids_are_in_range() {
        let max_id = AtomicUsize::new(0);
        scope(3, |pool| {
            for _ in 0..64 {
                let max_id = &max_id;
                pool.spawn(move |w| {
                    max_id.fetch_max(w, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(100));
                });
            }
        });
        assert!(max_id.load(Ordering::Relaxed) < 3);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let completed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(2, |pool| {
                pool.spawn(|_| panic!("boom"));
                for _ in 0..8 {
                    let completed = &completed;
                    pool.spawn(move |_| {
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(caught.is_err(), "panic must cross the scope");
        // Sibling jobs are not cancelled by a panicking one.
        assert_eq!(completed.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn one_thread_runs_jobs_on_the_caller_in_spawn_order() {
        // Observations are recorded, not asserted, inside the scope: a
        // panic in the scope's closure would leave threaded workers
        // waiting.
        let caller = std::thread::current().id();
        let ran = Mutex::new(Vec::new());
        let done_at_return = Mutex::new(Vec::new());
        let metrics = Metrics::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope_with(1, &metrics, |pool| {
                for i in 0..6 {
                    let ran = &ran;
                    pool.spawn(move |w| {
                        ran.lock().unwrap().push((i, w, std::thread::current().id()));
                        if i == 2 {
                            panic!("job 2");
                        }
                    });
                    done_at_return.lock().unwrap().push(ran.lock().unwrap().len());
                }
            });
        }));
        // Each job ran on the caller, in spawn order, before `spawn`
        // returned; the jobs after the panicking one still ran, and the
        // panic is resumed after the scope.
        let ran = ran.into_inner().unwrap();
        assert_eq!(ran, (0..6).map(|i| (i, 0, caller)).collect::<Vec<_>>());
        assert_eq!(done_at_return.into_inner().unwrap(), (1..=6).collect::<Vec<_>>());
        let payload = caught.expect_err("the job's panic must cross the scope");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 2"));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter_total("pool_tasks_spawned_total"), 6);
        assert_eq!(snap.counter_total("pool_tasks_completed_total"), 6);
        assert!(snap.counter("pool_worker_busy_ns", &[("worker", "0")]).is_some());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn pool_counters_are_exact_at_8_threads() {
        // An isolated registry sees only this scope's pool, so the
        // totals are exact — no lost increments under contention.
        const JOBS: usize = 500;
        let metrics = Metrics::new();
        let ran = AtomicUsize::new(0);
        scope_with(8, &metrics, |pool| {
            for _ in 0..JOBS {
                let ran = &ran;
                pool.spawn(move |_w| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), JOBS);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter_total("pool_tasks_spawned_total"), JOBS as u64);
        assert_eq!(snap.counter_total("pool_tasks_completed_total"), JOBS as u64);
        assert!(snap.counter_total("pool_steals_total") <= JOBS as u64);
        // Every worker flushed a busy and an idle line.
        for w in 0..8 {
            let worker = w.to_string();
            let labels = [("worker", worker.as_str())];
            assert!(snap.counter("pool_worker_busy_ns", &labels).is_some(), "worker {w} busy");
            assert!(snap.counter("pool_worker_idle_ns", &labels).is_some(), "worker {w} idle");
        }
    }

    #[test]
    fn empty_scope_terminates() {
        let r = scope(4, |_pool| 42);
        assert_eq!(r, 42);
    }
}
