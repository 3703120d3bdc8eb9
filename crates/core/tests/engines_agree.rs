//! Cross-executor integration tests on fixed instances: the sequential
//! DFS executor, the BFS executor and the parallel task engine agree on
//! single-label data, the matching order does not change a count, a
//! timeout stops the engine, and a panicking sink reaches the caller. The
//! swarm (`swarm.rs`) checks executor agreement on random instances.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::exec::{BfsExecutor, SequentialExecutor};
use hgmatch_core::sink::CallbackSink;
use hgmatch_core::{CountSink, MatchConfig, Matcher, Planner, QueryGraph};
use hgmatch_datasets::testgen::{blowup, random_hypergraph, random_subquery};
use hgmatch_hypergraph::Hypergraph;

fn count_all_executors(data: &Hypergraph, query: &Hypergraph) -> Vec<(String, u64)> {
    let qg = QueryGraph::new(query).unwrap();
    let plan = Planner::plan(&qg, data).unwrap();
    let mut results = Vec::new();

    let sink = CountSink::new();
    SequentialExecutor::run(&plan, data, &sink, &MatchConfig::sequential());
    results.push(("sequential".to_string(), sink.count()));

    let sink = CountSink::new();
    BfsExecutor::run(&plan, data, &sink, &MatchConfig::sequential());
    results.push(("bfs".to_string(), sink.count()));

    let sink = CountSink::new();
    BfsExecutor::run(&plan, data, &sink, &MatchConfig::parallel(3));
    results.push(("bfs(3t)".to_string(), sink.count()));

    for threads in [1usize, 2, 4] {
        let sink = CountSink::new();
        ParallelEngine::run(&plan, data, &sink, &MatchConfig::parallel(threads));
        results.push((format!("engine({threads}t)"), sink.count()));
    }

    let sink = CountSink::new();
    let nostl = MatchConfig::parallel(3).with_work_stealing(false);
    ParallelEngine::run(&plan, data, &sink, &nostl);
    results.push(("engine(nostl)".to_string(), sink.count()));

    results
}

#[test]
fn executors_agree_on_skewed_labels() {
    // Single-label data maximises automorphism pressure on validation.
    for seed in 0..6u64 {
        let data = random_hypergraph(seed + 100, 20, 40, 1, 3);
        for k in [2usize, 3, 4] {
            let Some(query) = random_subquery(&data, seed * 17 + k as u64, k) else {
                continue;
            };
            let results = count_all_executors(&data, &query);
            let reference = results[0].1;
            for (name, count) in &results {
                assert_eq!(*count, reference, "{name} seed {seed} k {k}");
            }
        }
    }
}

#[test]
fn matching_order_does_not_change_counts() {
    let data = random_hypergraph(42, 24, 48, 2, 4);
    let query = random_subquery(&data, 9, 3).expect("query");
    let qg = QueryGraph::new(&query).unwrap();
    let reference = {
        let plan = Planner::plan(&qg, &data).unwrap();
        let sink = CountSink::new();
        SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::sequential());
        sink.count()
    };
    // All 6 permutations of 3 query edges.
    for order in [
        [0u32, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        let plan = Planner::plan_with_order(&qg, &data, order.to_vec()).unwrap();
        let sink = CountSink::new();
        SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::sequential());
        assert_eq!(sink.count(), reference, "order {order:?} changed the count");
    }
}

#[test]
fn timeout_is_respected_not_ignored() {
    // Large instance, zero-ish timeout: must return quickly and flag it.
    let data = random_hypergraph(5, 60, 400, 1, 5);
    if let Some(query) = random_subquery(&data, 2, 4) {
        let matcher = Matcher::with_config(
            &data,
            MatchConfig::parallel(2).with_timeout(Duration::from_millis(1)),
        );
        let started = std::time::Instant::now();
        let _ = matcher.count(&query);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "timeout failed to stop the engine"
        );
    }
}

#[test]
fn matcher_facade_equivalences() {
    let data = random_hypergraph(11, 30, 60, 3, 4);
    let query = random_subquery(&data, 4, 2).expect("query");
    let m1 = Matcher::new(&data);
    let m4 = Matcher::with_config(&data, MatchConfig::parallel(4));
    let c1 = m1.count(&query).unwrap();
    let c4 = m4.count(&query).unwrap();
    assert_eq!(c1, c4);
    assert_eq!(m1.find_all(&query).unwrap().len() as u64, c1);
    assert_eq!(m4.find_all(&query).unwrap().len() as u64, c1);
    let k = (c1 / 2).max(1) as usize;
    assert_eq!(m1.find_first(&query, k).unwrap().len(), k.min(c1 as usize));
}

/// A task that panics on a parallel run reaches the caller: the peers of
/// the panicked worker drain and exit instead of waiting forever for its
/// tasks to retire, and the run re-raises the panic as the sequential
/// executor does. The run goes on a helper thread so a hang fails the test
/// instead of wedging it.
#[test]
fn a_panicking_sink_propagates_instead_of_hanging() {
    for workers in [2usize, 4] {
        let (done, finished) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let (data, query) = blowup(12, 3);
            let seen = AtomicU64::new(0);
            let sink = CallbackSink::new(|_: &[u32]| {
                if seen.fetch_add(1, Ordering::Relaxed) == 3 {
                    panic!("sink refuses the 4th embedding");
                }
            });
            let matcher = Matcher::with_config(&data, MatchConfig::parallel(workers));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                matcher.run(&query, &sink)
            }));
            let _ = done.send(run.is_err());
        });
        let raised = finished
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("workers={workers}: the run hung after a task panicked"));
        assert!(raised, "workers={workers}: the panic must reach the caller");
        helper.join().expect("the helper caught the panic");
    }
}
