//! Scheduler-stress and determinism suites for the work-assisting
//! scheduler (DESIGN.md §12, ISSUE 4 acceptance paths).
//!
//! Two families:
//!
//! * **Determinism** — for random data/query pairs, the served embedding
//!   multiset must equal the sequential executor's, for every pool size in
//!   {1, 2, 8}, in both kernel modes, with last-step splitting forced
//!   aggressively (threshold 4) so assist tickets saturate the schedule.
//! * **Accounting** — every spawned task (seed scans, children, assist
//!   tickets) is executed exactly once: after the pool drains,
//!   `tasks_spawned == tasks_executed`. A lost ticket would hang a query
//!   (pending never reaches zero); a double-executed one would double
//!   results — both are caught here and by the differential checks.
//!
//! The swarm (`swarm.rs`) crosses the same checks with the other
//! stressors; this suite keeps the fixed fixtures and the accounting.

use std::sync::Arc;

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::exec::SequentialExecutor;
use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::sink::CollectSink;
use hgmatch_core::{MatchConfig, Matcher, Planner, QueryGraph};
use hgmatch_datasets::testgen::{
    blowup, random_arity_hypergraph, random_subquery, workload_queries,
};
use hgmatch_hypergraph::setops::{set_kernel_mode, KernelMode};
use hgmatch_hypergraph::Hypergraph;

/// Splitting forced far below the production threshold, so even the small
/// test graphs exercise shared candidate ranges and assist tickets.
fn splitty(threads: usize) -> MatchConfig {
    MatchConfig::parallel(threads).with_split_threshold(4)
}

fn sequential_embeddings(data: &Hypergraph, query: &Hypergraph) -> Vec<Vec<u32>> {
    let q = QueryGraph::new(query).unwrap();
    let plan = Planner::plan(&q, data).unwrap();
    let sink = CollectSink::new();
    SequentialExecutor::run(&plan, data, &sink, &MatchConfig::sequential());
    sink.into_results()
        .into_iter()
        .map(|e| e.raw().to_vec())
        .collect()
}

/// Property: for random planted queries, the served embedding multiset is
/// identical to the sequential engine's for every pool size in {1, 2, 8},
/// in both kernel modes, under forced splitting.
#[test]
fn served_embeddings_match_sequential_across_workers_and_kernels() {
    for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
        set_kernel_mode(mode);
        for seed in 0..6u64 {
            let data = Arc::new(random_arity_hypergraph(
                0xA551_5700 + seed,
                120,
                420,
                3,
                2,
                4,
            ));
            let Some(query) = random_subquery(&data, 0xD0_0D + seed, 2 + (seed as usize % 2))
            else {
                continue;
            };
            // The serve sink sorts; sort the oracle once per seed the same way.
            let mut expected = sequential_embeddings(&data, &query);
            expected.sort_unstable();

            for workers in [1usize, 2, 8] {
                let server = MatchServer::new(
                    Arc::clone(&data),
                    ServeConfig {
                        threads: workers,
                        match_config: splitty(workers),
                        ..ServeConfig::default()
                    },
                );
                let outcome = server
                    .run(&query, QueryOptions::collect_all())
                    .expect("valid query");
                assert_eq!(outcome.status, QueryStatus::Completed);
                let got: Vec<Vec<u32>> = outcome
                    .embeddings
                    .expect("collected")
                    .into_iter()
                    .map(|e| e.raw().to_vec())
                    .collect();
                assert_eq!(
                    got, expected,
                    "seed {seed}, workers {workers}, mode {mode:?}"
                );
                let stats = server.stats();
                assert_eq!(
                    stats.tasks_spawned, stats.tasks_executed,
                    "seed {seed}, workers {workers}: every spawned task runs exactly once"
                );
                server.shutdown();
            }
        }
    }
    set_kernel_mode(KernelMode::Auto);
}

/// The one-shot engine under forced splitting agrees with itself unsplit,
/// in both kernel modes — the engine-side leg of the same property.
#[test]
fn engine_split_counts_match_unsplit() {
    for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
        set_kernel_mode(mode);
        for seed in 0..4u64 {
            let data = random_arity_hypergraph(0xE9_1E00 + seed, 100, 380, 3, 2, 4);
            let Some(query) = random_subquery(&data, 0xBEE + seed, 2) else {
                continue;
            };
            let plain =
                Matcher::with_config(&data, MatchConfig::parallel(4).with_split_threshold(0))
                    .count(&query)
                    .unwrap();
            let split = Matcher::with_config(&data, splitty(4))
                .count(&query)
                .unwrap();
            assert_eq!(plain, split, "seed {seed}, mode {mode:?}");
        }
    }
    set_kernel_mode(KernelMode::Auto);
}

/// A hub expansion whose generation ends on the *bitmap* accumulator: the
/// hub's posting covers the whole {A,B} partition (≥ `MIN_BITMAP_ROWS`
/// rows), so Algorithm 4 finishes dense and must decode the bitmap into
/// the row list before the list is published as a split. Skipping that
/// decode would share an empty range and lose every embedding.
#[test]
fn dense_hub_split_matches_sequential_across_workers_and_kernels() {
    use hgmatch_hypergraph::{HypergraphBuilder, Label};
    let leaves = 300u32;
    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(0)); // hub A
    b.add_vertices(leaves as usize, Label::new(1));
    for leaf in 1..=leaves {
        b.add_edge(vec![0, leaf]).unwrap();
    }
    let data = b.build().unwrap();
    // Two {A,B} edges sharing the A vertex: step 1 is anchored on the hub.
    let mut qb = HypergraphBuilder::new();
    qb.add_vertex(Label::new(0));
    qb.add_vertices(2, Label::new(1));
    qb.add_edge(vec![0, 1]).unwrap();
    qb.add_edge(vec![0, 2]).unwrap();
    let query = qb.build().unwrap();
    let plan = Planner::plan(&QueryGraph::new(&query).unwrap(), &data).unwrap();
    let partition = data.partition(plan.steps()[1].partition.unwrap());
    assert!(partition.incident_posting(0).bits().is_some());

    for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
        set_kernel_mode(mode);
        let expected = sequential_embeddings(&data, &query);
        assert_eq!(expected.len() as u32, leaves * (leaves - 1));
        for workers in [1usize, 2, 8] {
            let sink = CollectSink::new();
            let stats = ParallelEngine::run(&plan, &data, &sink, &splitty(workers));
            let got: Vec<Vec<u32>> = sink
                .into_results()
                .into_iter()
                .map(|e| e.raw().to_vec())
                .collect();
            assert_eq!(got, expected, "workers {workers}, mode {mode:?}");
            assert_eq!(
                stats.metrics.split_expansions > 0,
                workers > 1,
                "workers {workers}, mode {mode:?}: every hub expansion is splittable"
            );
        }
    }
    set_kernel_mode(KernelMode::Auto);
}

/// Stress: a combinatorial blow-up query (huge candidate lists at every
/// depth) races a mixed workload on one pool with aggressive splitting.
/// Checks exact counts, split activity (none on a lone worker), and
/// exactly-once task accounting.
#[test]
fn blowup_under_forced_splitting_accounts_every_task() {
    let (data, big) = blowup(11, 3);
    let data = Arc::new(data);
    let queries = workload_queries();

    let expected_big = sequential_embeddings(&data, &big).len() as u64;
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| sequential_embeddings(&data, q).len() as u64)
        .collect();

    for workers in [1, 8] {
        let server = MatchServer::new(
            Arc::clone(&data),
            ServeConfig {
                threads: workers,
                fairness_quantum: 8,
                match_config: splitty(workers),
                ..ServeConfig::default()
            },
        );
        // The big query and the mixed workload in flight together, twice over.
        for _round in 0..2 {
            let big_handle = server.submit(&big, QueryOptions::count()).unwrap();
            let handles: Vec<_> = queries
                .iter()
                .map(|q| server.submit(q, QueryOptions::count()).unwrap())
                .collect();
            assert_eq!(big_handle.wait().count, expected_big, "{workers} workers");
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(h.wait().count, expected[i], "query {i}, {workers} workers");
            }
        }

        let stats = server.stats();
        assert_eq!(stats.active, 0);
        assert_eq!(
            stats.tasks_spawned, stats.tasks_executed,
            "no lost or double-executed tasks ({workers} workers)"
        );
        if workers > 1 {
            assert!(
                stats.splits > 0,
                "threshold 4 on a blow-up instance must split (stats: {stats:?})"
            );
        } else {
            assert_eq!(stats.splits, 0, "a lone worker must never split");
        }
        server.shutdown();
    }
}

/// Cancellation mid-split releases the pool: unclaimed chunks of shared
/// candidate ranges are dropped, pending still reaches zero, and the
/// accounting invariant holds even for degenerate (post-stop) tickets.
#[test]
fn cancellation_mid_split_drains_cleanly() {
    let workers = 8;
    let (data, query) = blowup(13, 4);
    let data = Arc::new(data);
    let server = MatchServer::new(
        Arc::clone(&data),
        ServeConfig {
            threads: workers,
            match_config: splitty(workers),
            ..ServeConfig::default()
        },
    );
    let handle = server.submit(&query, QueryOptions::count()).unwrap();
    handle.cancel();
    let outcome = handle.wait();
    assert_eq!(outcome.status, QueryStatus::Cancelled);

    // A fresh query on the same pool still answers exactly: the pool
    // survived the mid-split teardown.
    let after = server
        .run(&workload_queries()[0], QueryOptions::count())
        .unwrap();
    assert_eq!(after.status, QueryStatus::Completed);
    let stats = server.stats();
    assert_eq!(stats.active, 0);
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
    server.shutdown();
}

/// `max_results` under forced splitting: expansion stops, results are
/// valid embeddings, and with one worker the first-k set is exactly the
/// sequential executor's (splitting is suppressed at pool size 1).
#[test]
fn max_results_under_splitting() {
    let (data, query) = blowup(9, 3);
    let data = Arc::new(data);
    let expected = sequential_embeddings(&data, &query);
    assert!(expected.len() > 10);

    // Multi-worker: any 5 valid embeddings.
    let server = MatchServer::new(
        Arc::clone(&data),
        ServeConfig {
            threads: 4,
            match_config: splitty(4),
            ..ServeConfig::default()
        },
    );
    let outcome = server.run(&query, QueryOptions::first(5)).unwrap();
    assert_eq!(outcome.status, QueryStatus::LimitReached);
    let got = outcome.embeddings.unwrap();
    assert_eq!(got.len(), 5);
    for e in &got {
        assert!(
            expected.iter().any(|x| x == e.raw()),
            "served a non-embedding"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
    server.shutdown();

    // Single worker: exactly the sequential first-k, even with the split
    // knobs forced low (pool size 1 suppresses splitting).
    let server = MatchServer::new(
        Arc::clone(&data),
        ServeConfig {
            threads: 1,
            match_config: splitty(1),
            ..ServeConfig::default()
        },
    );
    let outcome = server.run(&query, QueryOptions::first(5)).unwrap();
    let got: Vec<Vec<u32>> = outcome
        .embeddings
        .unwrap()
        .into_iter()
        .map(|e| e.raw().to_vec())
        .collect();
    // Sequential first-5 via the engine's own early-exit sink.
    let q = QueryGraph::new(&query).unwrap();
    let plan = Planner::plan(&q, &data).unwrap();
    let sink = hgmatch_core::sink::FirstKSink::new(5);
    SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::sequential());
    let mut first5: Vec<Vec<u32>> = sink
        .into_results()
        .into_iter()
        .map(|e| e.raw().to_vec())
        .collect();
    first5.sort_unstable();
    assert_eq!(got, first5);
    server.shutdown();
}
