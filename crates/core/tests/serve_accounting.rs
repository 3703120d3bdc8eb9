//! Quiescence accounting of the serving pool (DESIGN.md §8.1).
//!
//! A worker holds its tasks' metrics, sink counts, task counters and
//! `pending` retirements and publishes them at boundaries. Once every
//! query of a mixed batch has been waited for, everything must have been
//! published: the counters balance, the per-thread task counts add up to
//! the total, and each outcome's metrics agree with its count.
//!
//! Pool sizes 1, 4 and 8.

use std::sync::Arc;

use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::{AggregateMode, MatchConfig, Matcher, ScoreFn};
use hgmatch_datasets::testgen::{blowup, random_arity_hypergraph, workload_queries};
use hgmatch_hypergraph::Hypergraph;

const POOL_SIZES: [usize; 3] = [1, 4, 8];

/// Every aggregation mode with an exact count (no `max_results`).
fn modes() -> [AggregateMode; 4] {
    [
        AggregateMode::CountOnly,
        AggregateMode::Materialize,
        AggregateMode::TopK {
            k: 3,
            score: ScoreFn::MinEdge,
        },
        AggregateMode::Sampled { budget: 4, seed: 7 },
    ]
}

#[test]
fn counters_balance_at_quiescence_after_a_mixed_batch() {
    let data = Arc::new(random_arity_hypergraph(0xACC7, 300, 1000, 3, 2, 4));
    let (blowup_data, big) = blowup(10, 3);
    let blowup_data = Arc::new(blowup_data);
    let mut queries: Vec<(&Arc<Hypergraph>, Hypergraph)> =
        workload_queries().into_iter().map(|q| (&data, q)).collect();
    queries.push((&blowup_data, big));
    let expected: Vec<u64> = queries
        .iter()
        .map(|(d, q)| Matcher::new(d).count(q).unwrap())
        .collect();

    for workers in POOL_SIZES {
        // One pool per data graph; the blow-up splits at threshold 4.
        let config = ServeConfig {
            threads: workers,
            fairness_quantum: 8,
            match_config: MatchConfig::parallel(workers).with_split_threshold(4),
            ..ServeConfig::default()
        };
        let servers =
            [&data, &blowup_data].map(|d| MatchServer::new(Arc::clone(d), config.clone()));
        let server_of = |d: &Arc<Hypergraph>| &servers[usize::from(!Arc::ptr_eq(d, &data))];

        // Pooled submissions of every query in every mode, all in flight
        // at once, beside caller-first runs of the same on this thread.
        let mut handles = Vec::new();
        for mode in modes() {
            for (i, (d, q)) in queries.iter().enumerate() {
                let options = QueryOptions::default().with_aggregate(mode);
                handles.push((i, mode, server_of(d).submit(q, options).unwrap()));
            }
        }
        let mut outcomes = Vec::new();
        for mode in modes() {
            for (i, (d, q)) in queries.iter().enumerate() {
                let options = QueryOptions::default().with_aggregate(mode);
                outcomes.push((i, mode, server_of(d).run(q, options).unwrap()));
            }
        }
        outcomes.extend(handles.into_iter().map(|(i, mode, h)| (i, mode, h.wait())));

        for (i, mode, outcome) in &outcomes {
            let context = format!("workers {workers}, query {i}, {mode:?}");
            assert_eq!(outcome.status, QueryStatus::Completed, "{context}");
            assert_eq!(outcome.count, expected[*i], "{context}");
            assert_eq!(outcome.metrics.embeddings, outcome.count, "{context}");
            let materialized = if mode.needs_embeddings() {
                outcome.count
            } else {
                0
            };
            assert_eq!(outcome.metrics.materialized, materialized, "{context}");
        }
        let mut caller_tasks = 0;
        for server in servers {
            let stats = server.stats();
            caller_tasks += stats.caller_tasks;
            let worker_tasks: u64 = server.worker_stats().iter().map(|w| w.tasks).sum();
            assert_eq!(stats.active, 0, "workers {workers}");
            assert_eq!(
                stats.tasks_spawned, stats.tasks_executed,
                "workers {workers}"
            );
            assert_eq!(
                worker_tasks + stats.caller_tasks,
                stats.tasks_executed,
                "workers {workers}"
            );
            server.shutdown();
        }
        assert!(caller_tasks > 0, "workers {workers}: both venues ran");
    }
}
