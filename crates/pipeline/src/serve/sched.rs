//! The stage-level DAG scheduler under `parfait-serve`.
//!
//! A batch of cells decomposes into *nodes* — one per unique
//! (tenant, app, cpu, opt)-scoped stage — with the stage table's
//! fail-fast edges ([`crate::graph`]). Two cells that share a node
//! (every cell of an app shares its speccheck; every opt level of a
//! platform shares its contract battery) contribute the node **once**:
//! it runs once and unblocks every dependent, which is the scheduler's
//! half of the dedup story (the cache's single-flight is the other
//! half, collapsing duplicates across *sessions*).
//!
//! [`execute`] is generic over the node key and value types so the
//! property tests can drive it with synthetic DAGs: it validates the
//! graph up front (duplicate keys, unknown deps, cycles are input
//! errors, not hangs), then runs ready nodes on a
//! [`parfait_parallel::scope`] pool. The pool's jobs cannot themselves
//! spawn (scoped lifetimes), so a *coordinator* — the caller's thread,
//! which is free to block — drains a ready queue fed by completing
//! nodes and submits newly unblocked work. A width-1 pool runs each job
//! on the coordinator's thread as it is submitted, so the same loop
//! runs a width-1 graph inline, with no worker thread.
//!
//! Failure is data, not control flow: a failing node records its error
//! and every transitive dependent is *skipped* with that same error
//! string, verbatim (the pipeline has already `[stage]`-prefixed it),
//! while unrelated subgraphs run to completion.
//!
//! Ready nodes start in the order they became ready (a graph planned in
//! chain order starts its siblings in chain order), whichever worker
//! picks them up.
//!
//! Exported gauges: `serve_queue_depth` (ready nodes not yet started) and
//! `serve_inflight` (nodes executing); counter:
//! `serve_nodes_total{outcome=ok|failed|skipped}`.

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::{Condvar, Mutex};

use parfait_telemetry::metrics::Metrics;

/// A node's view of its dependencies' results, in declaration order.
/// Only `Ok` values appear here: a node with a failed dependency is
/// skipped, never run.
pub struct Deps<K, V>(Vec<(K, V)>);

impl<K: PartialEq, V> Deps<K, V> {
    /// The result of dependency `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// The work a [`DagNode`] performs, handed its dependencies' values.
pub type NodeFn<'a, K, V> = Box<dyn Fn(&Deps<K, V>) -> Result<V, String> + Send + Sync + 'a>;

/// One schedulable unit of work.
pub struct DagNode<'a, K, V> {
    /// Unique key (duplicate keys are an input error).
    pub key: K,
    /// Keys this node needs finished (and `Ok`) before it runs.
    pub deps: Vec<K>,
    /// The work itself.
    pub run: NodeFn<'a, K, V>,
}

struct ExecState<V> {
    /// One slot per node, filled exactly once.
    results: Vec<Option<Result<V, String>>>,
    /// Unresolved-dependency counts; a node enters `ready` at zero.
    indegree: Vec<usize>,
    /// Unblocked nodes not yet started, in the order they unblocked.
    ready: VecDeque<usize>,
    /// Pool jobs submitted but not yet started: each starts the oldest
    /// ready node, so nodes start in `ready` order whatever order the
    /// pool picks its jobs in.
    submitted: usize,
    /// Nodes currently executing on the pool.
    running: usize,
    /// Nodes resolved (ran, failed, or skipped).
    done: usize,
}

/// Run a DAG of nodes on a `threads`-wide pool, returning every node's
/// result keyed by its `key`. Structural problems — duplicate keys,
/// edges to unknown keys, dependency cycles — are reported as `Err`
/// before any node runs.
pub fn execute<'a, K, V>(
    threads: usize,
    metrics: &Metrics,
    nodes: Vec<DagNode<'a, K, V>>,
) -> Result<HashMap<K, Result<V, String>>, String>
where
    K: Eq + Hash + Clone + Debug + Send + Sync,
    V: Clone + Send,
{
    let n = nodes.len();
    if n == 0 {
        return Ok(HashMap::new());
    }
    // --- validate: unique keys, known deps, acyclic ---
    let mut index: HashMap<&K, usize> = HashMap::with_capacity(n);
    for (i, node) in nodes.iter().enumerate() {
        if index.insert(&node.key, i).is_some() {
            return Err(format!("duplicate node key {:?}", node.key));
        }
    }
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        for dep in &node.deps {
            let &d = index
                .get(dep)
                .ok_or_else(|| format!("node {:?} depends on unknown key {dep:?}", node.key))?;
            if d == i {
                return Err(format!("node {:?} depends on itself", node.key));
            }
            indegree[i] += 1;
            dependents[d].push(i);
        }
    }
    // Kahn's algorithm on a scratch copy: if it cannot consume every
    // node, the leftover subgraph is cyclic.
    {
        let mut scratch = indegree.clone();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| scratch[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop_front() {
            seen += 1;
            for &d in &dependents[i] {
                scratch[d] -= 1;
                if scratch[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if seen != n {
            let stuck: Vec<&K> =
                (0..n).filter(|&i| scratch[i] > 0).map(|i| &nodes[i].key).collect();
            return Err(format!("dependency cycle among {stuck:?}"));
        }
    }

    // --- execute: coordinator drains `ready`, jobs feed it back ---
    let queue_depth = metrics.gauge("serve_queue_depth");
    let inflight = metrics.gauge("serve_inflight");
    let outcome_counter =
        |outcome: &str| metrics.counter_with("serve_nodes_total", &[("outcome", outcome)]);
    let ready: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let state: Mutex<ExecState<V>> = Mutex::new(ExecState {
        results: (0..n).map(|_| None).collect(),
        indegree,
        ready,
        submitted: 0,
        running: 0,
        done: 0,
    });
    let cv = Condvar::new();

    parfait_parallel::scope_with(threads, metrics, |pool| {
        let mut st = state.lock().unwrap();
        loop {
            while st.submitted < st.ready.len() {
                st.submitted += 1;
                drop(st);
                let state = &state;
                let cv = &cv;
                let nodes = &nodes;
                let dependents = &dependents;
                let index = &index;
                let queue_depth = &queue_depth;
                let inflight = &inflight;
                let outcome_counter = &outcome_counter;
                pool.spawn(move |_w| {
                    // Start the oldest ready node. Its dependencies are
                    // all Ok by construction (a failed dep skips this
                    // node instead of readying it).
                    let (i, dep_vals) = {
                        let mut st = state.lock().unwrap();
                        st.submitted -= 1;
                        let i = st.ready.pop_front().expect("one job per ready node");
                        st.running += 1;
                        queue_depth.set(st.ready.len() as f64);
                        inflight.set(st.running as f64);
                        let deps = nodes[i]
                            .deps
                            .iter()
                            .map(|k| {
                                let v = st.results[index[k]]
                                    .as_ref()
                                    .expect("dep resolved before dependent ran")
                                    .as_ref()
                                    .expect("dep ok before dependent ran");
                                (k.clone(), v.clone())
                            })
                            .collect();
                        (i, Deps(deps))
                    };
                    let result = (nodes[i].run)(&dep_vals);
                    outcome_counter(if result.is_ok() { "ok" } else { "failed" }).inc();
                    let mut st = state.lock().unwrap();
                    st.running -= 1;
                    inflight.set(st.running as f64);
                    // Resolve this node, then cascade: a dependent whose
                    // last dependency just resolved either becomes ready
                    // (all deps Ok) or is skipped with the first failed
                    // dependency's error, recursively.
                    let mut stack = vec![(i, result)];
                    while let Some((j, res)) = stack.pop() {
                        st.results[j] = Some(res);
                        st.done += 1;
                        for &d in &dependents[j] {
                            st.indegree[d] -= 1;
                            if st.indegree[d] > 0 {
                                continue;
                            }
                            let failed_dep = nodes[d].deps.iter().find_map(|k| {
                                match st.results[index[k]].as_ref().expect("dep resolved") {
                                    Ok(_) => None,
                                    Err(e) => Some(e.clone()),
                                }
                            });
                            match failed_dep {
                                // Skipped dependents propagate the
                                // failing stage's error verbatim.
                                Some(e) => {
                                    outcome_counter("skipped").inc();
                                    stack.push((d, Err(e)));
                                }
                                None => st.ready.push_back(d),
                            }
                        }
                    }
                    queue_depth.set(st.ready.len() as f64);
                    drop(st);
                    cv.notify_all();
                });
                st = state.lock().unwrap();
            }
            if st.done == n {
                break;
            }
            st = cv.wait(st).unwrap();
        }
        queue_depth.set(0.0);
        inflight.set(0.0);
    });

    let results = state.into_inner().unwrap().results;
    Ok(nodes
        .into_iter()
        .zip(results)
        .map(|(node, res)| (node.key, res.expect("every node resolved")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node<'a>(
        key: &str,
        deps: &[&str],
        run: impl Fn(&Deps<String, i64>) -> Result<i64, String> + Send + Sync + 'a,
    ) -> DagNode<'a, String, i64> {
        DagNode {
            key: key.to_string(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            run: Box::new(run),
        }
    }

    #[test]
    fn chains_pass_values_downstream() {
        let metrics = Metrics::new();
        let out = execute(
            2,
            &metrics,
            vec![
                node("a", &[], |_| Ok(1)),
                node("b", &["a"], |d| Ok(d.get(&"a".to_string()).unwrap() + 10)),
                node("c", &["a", "b"], |d| {
                    Ok(d.get(&"a".to_string()).unwrap() + d.get(&"b".to_string()).unwrap())
                }),
            ],
        )
        .unwrap();
        assert_eq!(out["c"], Ok(12));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serve_nodes_total", &[("outcome", "ok")]), Some(3));
    }

    #[test]
    fn failure_skips_exactly_the_dependents() {
        let metrics = Metrics::new();
        let out = execute(
            4,
            &metrics,
            vec![
                node("root", &[], |_| Err("[lockstep] boom".into())),
                node("child", &["root"], |_| Ok(1)),
                node("grandchild", &["child"], |_| Ok(2)),
                node("island", &[], |_| Ok(3)),
            ],
        )
        .unwrap();
        // The error string propagates verbatim to every transitive
        // dependent; the unrelated node still completes.
        assert_eq!(out["root"], Err("[lockstep] boom".into()));
        assert_eq!(out["child"], Err("[lockstep] boom".into()));
        assert_eq!(out["grandchild"], Err("[lockstep] boom".into()));
        assert_eq!(out["island"], Ok(3));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serve_nodes_total", &[("outcome", "failed")]), Some(1));
        assert_eq!(snap.counter("serve_nodes_total", &[("outcome", "skipped")]), Some(2));
        assert_eq!(snap.counter("serve_nodes_total", &[("outcome", "ok")]), Some(1));
    }

    #[test]
    fn structural_errors_are_reported_not_hung() {
        let m = Metrics::new();
        let dup = execute(1, &m, vec![node("a", &[], |_| Ok(1)), node("a", &[], |_| Ok(2))]);
        assert!(dup.unwrap_err().contains("duplicate"), "duplicate keys");
        let unknown = execute(1, &m, vec![node("a", &["ghost"], |_| Ok(1))]);
        assert!(unknown.unwrap_err().contains("unknown key"), "unknown dep");
        let cycle =
            execute(1, &m, vec![node("a", &["b"], |_| Ok(1)), node("b", &["a"], |_| Ok(2))]);
        assert!(cycle.unwrap_err().contains("cycle"), "cycle");
        let self_dep = execute(1, &m, vec![node("a", &["a"], |_| Ok(1))]);
        assert!(self_dep.unwrap_err().contains("itself"), "self-dep");
        assert!(execute::<String, i64>(1, &m, vec![]).unwrap().is_empty());
    }
}
