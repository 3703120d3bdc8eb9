//! End-to-end tests of the multi-query serving layer (ISSUE 2 acceptance
//! paths): concurrent-query correctness against the sequential oracle,
//! cancellation, timeouts, deterministic `max_results` early-exit and
//! plan-cache observability.

use std::sync::Arc;
use std::time::Duration;

use hgmatch_core::exec::SequentialExecutor;
use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::sink::{CountSink, FirstKSink};
use hgmatch_core::{MatchConfig, Planner, QueryGraph};
use hgmatch_datasets::testgen::{blowup, paper_data, random_arity_hypergraph, workload_queries};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};

/// A deterministic random hypergraph over `nl` labels, arities 2–4.
fn random_data(nv: u32, nl: u32, ne: u32, seed: u64) -> Hypergraph {
    random_arity_hypergraph(seed, nv as usize, ne as usize, nl, 2, 4)
}

fn sequential_count(data: &Hypergraph, query: &Hypergraph) -> u64 {
    let q = QueryGraph::new(query).unwrap();
    let plan = Planner::plan(&q, data).unwrap();
    let sink = CountSink::new();
    let stats = SequentialExecutor::run(&plan, data, &sink, &MatchConfig::sequential());
    stats.embeddings()
}

/// Acceptance: ≥ 8 concurrent queries on one shared pool return the same
/// counts as running each alone through the sequential executor.
#[test]
fn concurrent_queries_match_sequential_counts() {
    let data = Arc::new(random_data(400, 3, 1200, 0xFEED));
    let queries = workload_queries();
    assert!(queries.len() >= 8, "acceptance demands >= 8 queries");
    let expected: Vec<u64> = queries.iter().map(|q| sequential_count(&data, q)).collect();
    assert!(
        expected.iter().any(|&c| c > 0),
        "workload must be non-trivial"
    );

    let server = MatchServer::new(
        Arc::clone(&data),
        ServeConfig::default()
            .with_threads(4)
            .with_fairness_quantum(8),
    );
    // Submit everything before waiting on anything: all queries are in
    // flight on the shared pool together.
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q, QueryOptions::count()).unwrap())
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait();
        assert_eq!(outcome.status, QueryStatus::Completed, "query {i}");
        assert_eq!(outcome.count, expected[i], "query {i}");
    }
    let stats = server.stats();
    assert_eq!(stats.admitted, queries.len() as u64);
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.active, 0);
}

/// Collected embeddings under concurrency equal the sequential executor's
/// full result sets, not just the counts.
#[test]
fn concurrent_collection_matches_sequential_embeddings() {
    let data = Arc::new(random_data(150, 3, 400, 0xBEEF));
    let queries = workload_queries();
    let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(3));
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q, QueryOptions::collect_all()).unwrap())
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait();
        let q = QueryGraph::new(&queries[i]).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let sink = hgmatch_core::CollectSink::new();
        SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::sequential());
        let expected = sink.into_results();
        assert_eq!(
            outcome.embeddings.as_deref(),
            Some(&expected[..]),
            "query {i}"
        );
    }
}

/// Cancellation mid-expansion releases the workers: the pool stays usable
/// and the cancelled query resolves promptly despite an astronomically
/// large search space.
#[test]
fn cancellation_releases_pool() {
    let (data, query) = blowup(60, 5);
    let data = Arc::new(data);
    let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(2));

    let handle = server.submit(&query, QueryOptions::count()).unwrap();
    // Let workers sink their teeth into the expansion before cancelling.
    std::thread::sleep(Duration::from_millis(20));
    handle.cancel();
    let outcome = handle.wait();
    assert_eq!(outcome.status, QueryStatus::Cancelled);

    // The pool must still serve new queries correctly.
    let mut b = HypergraphBuilder::new();
    b.add_vertices(2, Label::new(0));
    b.add_edge(vec![0, 1]).unwrap();
    let small = b.build().unwrap();
    let follow_up = server.submit(&small, QueryOptions::count()).unwrap().wait();
    assert_eq!(follow_up.status, QueryStatus::Completed);
    assert_eq!(follow_up.count, sequential_count(&data, &small));
    assert_eq!(server.stats().cancelled, 1);
}

/// A wall-clock timeout stops in-flight work, flags the outcome and leaves
/// the pool intact; the partial count is a valid lower bound.
#[test]
fn timeout_returns_partial_results_with_flag() {
    let (data, query) = blowup(60, 5);
    let data = Arc::new(data);
    let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(2));

    let outcome = server
        .run(
            &query,
            QueryOptions::count().with_timeout(Duration::from_millis(30)),
        )
        .unwrap();
    assert_eq!(outcome.status, QueryStatus::TimedOut);

    // Pool alive: a feasible follow-up completes exactly.
    let mut b = HypergraphBuilder::new();
    b.add_vertices(2, Label::new(0));
    b.add_edge(vec![0, 1]).unwrap();
    let small = b.build().unwrap();
    let follow_up = server.run(&small, QueryOptions::count()).unwrap();
    assert_eq!(follow_up.status, QueryStatus::Completed);
    assert_eq!(follow_up.count, sequential_count(&data, &small));
    assert_eq!(server.stats().timed_out, 1);
}

/// `max_results` early-exit on a single-worker pool returns exactly the
/// sequential executor's first-N: the serving scheduler emits extensions
/// so its LIFO pop order reproduces the sequential depth-first order.
#[test]
fn max_results_matches_sequential_first_n() {
    let (data, query) = blowup(10, 3);
    let data = Arc::new(data);
    let q = QueryGraph::new(&query).unwrap();
    let plan = Planner::plan(&q, &data).unwrap();

    for k in [1usize, 7, 23] {
        let oracle = FirstKSink::new(k);
        SequentialExecutor::run(&plan, &data, &oracle, &MatchConfig::sequential());
        let expected = oracle.into_results();
        assert_eq!(expected.len(), k, "oracle must saturate");

        let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(1));
        let outcome = server.run(&query, QueryOptions::first(k as u64)).unwrap();
        assert_eq!(outcome.status, QueryStatus::LimitReached, "k={k}");
        assert_eq!(outcome.count, k as u64, "k={k}");
        assert_eq!(
            outcome.embeddings.as_deref(),
            Some(&expected[..]),
            "k={k}: first-{k} must match the sequential executor"
        );
    }
}

/// A `max_results` limit also stops count-only expansion (not just result
/// recording): the task counter stays far below the exhaustive run's.
#[test]
fn max_results_stops_expansion_for_counting() {
    let (data, query) = blowup(40, 4);
    let data = Arc::new(data);
    let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(2));
    let outcome = server
        .run(&query, QueryOptions::count().with_max_results(100))
        .unwrap();
    assert_eq!(outcome.status, QueryStatus::LimitReached);
    assert_eq!(outcome.count, 100);
    // The exhaustive count is ~40⁴·automorphisms; stopping early must keep
    // the explored expansions orders of magnitude below that.
    assert!(
        outcome.metrics.expansions < 1_000_000,
        "expansion did not stop early: {} expansions",
        outcome.metrics.expansions
    );
}

/// A plan-cache hit is observable through both the per-query outcome and
/// the aggregate server stats, and cached plans still answer correctly.
#[test]
fn plan_cache_hits_are_observable() {
    let data = Arc::new(paper_data());
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 2, 0, 0, 1] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![2, 4]).unwrap();
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![0, 1, 3, 4]).unwrap();
    let query = b.build().unwrap();

    let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(2));
    let first = server.run(&query, QueryOptions::count()).unwrap();
    let second = server.run(&query, QueryOptions::count()).unwrap();
    let third = server.run(&query, QueryOptions::count()).unwrap();
    assert_eq!((first.count, second.count, third.count), (2, 2, 2));
    assert!(!first.plan_cached);
    assert!(second.plan_cached && third.plan_cached);

    let stats = server.stats();
    assert_eq!(stats.plan_cache_hits, 2);
    assert_eq!(stats.plan_cache_misses, 1);
    assert_eq!(stats.plan_cache_size, 1);
}

/// Infeasible and empty-result queries resolve without touching the pool.
#[test]
fn trivial_queries_resolve_inline() {
    let data = Arc::new(paper_data());
    let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(1));
    let mut b = HypergraphBuilder::new();
    b.add_vertices(2, Label::new(9));
    b.add_edge(vec![0, 1]).unwrap();
    let infeasible = b.build().unwrap();
    let handle = server.submit(&infeasible, QueryOptions::count()).unwrap();
    assert!(handle.is_finished(), "infeasible query resolves at submit");
    let outcome = handle.wait();
    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(outcome.count, 0);
    assert_eq!(server.stats().tasks_executed, 0);
}

/// Submission errors (empty query) surface as errors, not hangs.
#[test]
fn empty_query_errors() {
    let data = Arc::new(paper_data());
    let server = MatchServer::new(data, ServeConfig::default().with_threads(1));
    let empty = HypergraphBuilder::new().build().unwrap();
    assert!(server.submit(&empty, QueryOptions::count()).is_err());
}

/// Dropping the server cancels in-flight queries and wakes their waiters
/// instead of leaking a wedged pool.
#[test]
fn shutdown_cancels_in_flight_queries() {
    let (data, query) = blowup(60, 5);
    let server = MatchServer::new(Arc::new(data), ServeConfig::default().with_threads(2));
    let handle = server.submit(&query, QueryOptions::count()).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    server.shutdown();
    let outcome = handle.wait();
    assert_eq!(outcome.status, QueryStatus::Cancelled);
}

/// With work stealing disabled each query is pinned to the worker that
/// claimed its seed: results stay correct and no steals happen.
#[test]
fn no_stealing_pins_queries_and_stays_correct() {
    let data = Arc::new(random_data(150, 3, 400, 0x1234));
    let queries = workload_queries();
    let expected: Vec<u64> = queries.iter().map(|q| sequential_count(&data, q)).collect();
    let mut config = ServeConfig::default().with_threads(3);
    config.match_config.work_stealing = false;
    let server = MatchServer::new(Arc::clone(&data), config);
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q, QueryOptions::count()).unwrap())
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().count, expected[i], "query {i}");
    }
    assert_eq!(server.stats().steals, 0);
}

/// Many repeated submissions of a small workload stress admission,
/// finalisation and the plan cache together.
#[test]
fn repeated_mixed_workload_is_stable() {
    let data = Arc::new(random_data(200, 3, 600, 0xABCD));
    let queries = workload_queries();
    let expected: Vec<u64> = queries.iter().map(|q| sequential_count(&data, q)).collect();
    let server = MatchServer::new(
        Arc::clone(&data),
        ServeConfig::default()
            .with_threads(3)
            .with_fairness_quantum(4),
    );
    for round in 0..5 {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| server.submit(q, QueryOptions::count()).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let outcome = h.wait();
            assert_eq!(outcome.count, expected[i], "round {round}, query {i}");
        }
    }
    let stats = server.stats();
    assert_eq!(stats.admitted, 5 * queries.len() as u64);
    // Every round after the first hits the plan cache for every query.
    assert_eq!(stats.plan_cache_hits, 4 * queries.len() as u64);
}

/// An update storm races a tiny plan cache: `update_data` bumps the epoch
/// (alternating label-touched and sids-shifted sweeps) while submissions
/// keep planning into a capacity-2 cache, so entries are concurrently
/// inserted, evicted and invalidated. Every published snapshot has the
/// same content, so any wrong answer means a query ran a plan from the
/// wrong epoch or a half-swept cache.
#[test]
fn update_data_epoch_storm_keeps_results_exact() {
    let data = Arc::new(random_data(150, 3, 400, 0x5EED));
    let queries = workload_queries();
    let expected: Vec<u64> = queries.iter().map(|q| sequential_count(&data, q)).collect();
    let server = MatchServer::new(
        Arc::clone(&data),
        ServeConfig::default()
            .with_threads(3)
            .with_plan_cache_capacity(2),
    );
    let updates = 48u64;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..updates {
                server.update_data(Arc::clone(&data), &[Label::new((i % 3) as u32)], i % 5 != 4);
                std::thread::yield_now();
            }
        });
        for round in 0..8 {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| server.submit(q, QueryOptions::count()).unwrap())
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let outcome = h.wait();
                assert_eq!(
                    outcome.status,
                    QueryStatus::Completed,
                    "round {round} q {i}"
                );
                assert_eq!(outcome.count, expected[i], "round {round} q {i}");
                assert!(outcome.data_epoch <= updates, "round {round} q {i}");
            }
        }
    });
    let stats = server.stats();
    assert_eq!(stats.data_epoch, updates);
    assert_eq!(stats.admitted, 8 * queries.len() as u64);
    assert_eq!(stats.completed, 8 * queries.len() as u64);
    assert!(
        stats.plan_cache_size <= 2,
        "cache must stay within capacity through the storm"
    );
    server.shutdown();
}
