//! Regression: `max_results` / first-k truncation racing assist-ticket
//! splits (DESIGN.md §18).
//!
//! The fixture is a hub-star: one selective anchor edge plus one huge
//! last-step expansion of `N` sibling edges. With the split threshold
//! forced down to 4, that expansion is published for work assisting and
//! every worker chews on a chunk of it concurrently. Before the fix,
//! workers flushed their bulk counts only at chunk end and probed
//! `Sink::is_satisfied` only every `CHECK_INTERVAL` rows — so a k=5 limit
//! against a 20 000-wide expansion materialised thousands of embeddings
//! and overshot the count by orders of magnitude. After the fix (counts
//! flush every `COUNT_FLUSH` deliveries, satisfaction probed per row),
//! the overshoot is bounded by a small per-worker constant.
//!
//! The `giant_expansion_*` cases run the same fixture at 10⁵ candidates
//! and 2 workers — ROADMAP item 10's adversary in miniature — under both
//! candidate loops (the serial one and the work-assisting claim loop):
//! the multiset is the sequential oracle's and a limit stops the
//! expansion within one `ABORT_PROBE` window per participant.

use hgmatch_core::exec::SequentialExecutor;
use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::sink::CollectSink;
use hgmatch_core::{Embedding, FirstKSink, MatchConfig, Matcher};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};
use std::sync::Arc;

/// Embeddings a k-limited run may deliver to the sink past the limit: a
/// worker probes the stop once per assist claim, so it can finish the
/// claim it holds — one chunk, which the engine derives from the range
/// length as `min(len / 8, 256)`, i.e. 256 rows at `N` — plus up to
/// `COUNT_FLUSH` (64) deliveries its peers have not flushed yet. That is
/// still ~8x below the pre-fix overshoot (the full 20 000) at 8 workers.
const OVERSHOOT_PER_WORKER: u64 = 256 + 64;

const N: usize = 20_000;
const K: u64 = 5;

/// Hub-star data graph: vertex 0 is the hub (label 1), vertex 1 the
/// anchor (label 2), vertices 2..N+2 leaves (label 0). Edges: the single
/// anchor edge {0,1} plus N star edges {0, 2+i}.
fn hub_star(n: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(1));
    b.add_vertex(Label::new(2));
    for _ in 0..n {
        b.add_vertex(Label::new(0));
    }
    b.add_edge(vec![0, 1]).unwrap();
    for i in 0..n {
        b.add_edge(vec![0, 2 + i as u32]).unwrap();
    }
    b.build().unwrap()
}

/// 2-path query: {hub, anchor} + {hub, leaf}. The anchor edge has exactly
/// one candidate; the leaf edge has N — one giant final expansion.
fn two_path_query() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(1));
    b.add_vertex(Label::new(2));
    b.add_vertex(Label::new(0));
    b.add_edge(vec![0, 1]).unwrap();
    b.add_edge(vec![0, 2]).unwrap();
    b.build().unwrap()
}

/// One-shot engine path: `find_first` under forced splitting returns
/// exactly k embeddings and the sink sees a bounded number of deliveries.
#[test]
fn first_k_is_exact_under_forced_splits() {
    let data = hub_star(N);
    let query = two_path_query();
    for workers in [2usize, 8] {
        let config = MatchConfig::parallel(workers).with_split_threshold(4);
        let matcher = Matcher::with_config(&data, config);

        let results = matcher.find_first(&query, K as usize).unwrap();
        assert_eq!(results.len(), K as usize, "workers={workers}");

        // The sink-level view: deliveries past the limit stay bounded.
        let sink = FirstKSink::new(K as usize);
        let stats = matcher.run(&query, &sink).unwrap();
        let bound = K + workers as u64 * OVERSHOOT_PER_WORKER;
        assert!(
            stats.metrics.materialized <= bound,
            "workers={workers}: materialized {} > bound {bound} \
             (limit truncation raced the splits)",
            stats.metrics.materialized,
        );
        assert_eq!(sink.into_results().len(), K as usize);
    }
}

/// Resident-pool path: a `max_results` query stops exactly once with
/// `LimitReached`, reports exactly k, and materializes a bounded number
/// of embeddings even though the final expansion was split N/chunk ways.
#[test]
fn serve_limit_stops_exactly_once_under_forced_splits() {
    let data = Arc::new(hub_star(N));
    let query = two_path_query();
    for workers in [2usize, 8] {
        let mut config = ServeConfig::default().with_threads(workers);
        config.match_config = config.match_config.with_split_threshold(4);
        let server = MatchServer::new(Arc::clone(&data), config);

        let outcome = server.run(&query, QueryOptions::first(K)).unwrap();
        assert_eq!(
            outcome.status,
            QueryStatus::LimitReached,
            "workers={workers}"
        );
        assert_eq!(outcome.count, K, "workers={workers}");
        let embs = outcome.embeddings.as_ref().expect("materialize mode");
        assert_eq!(embs.len(), K as usize, "workers={workers}");
        let bound = K + workers as u64 * OVERSHOOT_PER_WORKER;
        assert!(
            outcome.metrics.materialized <= bound,
            "workers={workers}: materialized {} > bound {bound}",
            outcome.metrics.materialized,
        );

        // Count-only limit: same exact stop without materializing anything.
        let outcome = server
            .run(&query, QueryOptions::count().with_max_results(K))
            .unwrap();
        assert_eq!(outcome.status, QueryStatus::LimitReached);
        assert_eq!(outcome.count, K);
        assert_eq!(outcome.metrics.materialized, 0);
        assert!(outcome.embeddings.is_none());

        let stats = server.stats();
        assert_eq!(stats.limit_reached, 2, "workers={workers}");
        // Exactly-once stop: the limit fired once per query, and the
        // splits recorded alongside prove the expansion really was shared.
        assert!(
            stats.splits > 0,
            "workers={workers}: no splits — fixture degenerated"
        );
    }
}

/// Candidates of the giant expansion: nothing for stealing to divide,
/// everything for a split to.
const GIANT: usize = 100_000;

/// `engine::task::ABORT_PROBE`: candidates one participant validates
/// between stop probes inside a single expansion.
const ABORT_PROBE: u64 = 1024;

/// The giant expansion runs under both loops: the plain serial one (split
/// threshold 0 — one worker owns the whole range) and the work-assisting
/// claim loop, at a threshold below `GIANT` whatever the default is.
fn giant_configs() -> [MatchConfig; 2] {
    [
        MatchConfig::parallel(2).with_split_threshold(0),
        MatchConfig::parallel(2).with_split_threshold(GIANT / 2),
    ]
}

/// Embeddings as sorted rows of data-edge ids, the form the oracle and both
/// engines are compared in.
fn sorted_rows(embeddings: Vec<Embedding>) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = embeddings.iter().map(|e| e.raw().to_vec()).collect();
    rows.sort_unstable();
    rows
}

fn sequential_sorted(data: &Hypergraph, query: &Hypergraph) -> Vec<Vec<u32>> {
    let plan = Matcher::new(data).plan(query).unwrap();
    let sink = CollectSink::new();
    SequentialExecutor::run(&plan, data, &sink, &MatchConfig::sequential());
    sorted_rows(sink.into_results())
}

/// One-shot engine, 2 workers, one expansion of 10⁵ candidates: the
/// embedding multiset is the sequential oracle's whichever loop validates
/// it, and a first-k stop lands within one `ABORT_PROBE` window per
/// participant instead of running the range out.
#[test]
fn giant_expansion_on_the_engine_matches_sequential_and_stops_within_a_probe_window() {
    let data = hub_star(GIANT);
    let query = two_path_query();
    let expected = sequential_sorted(&data, &query);
    assert_eq!(expected.len(), GIANT);
    for config in giant_configs() {
        let threshold = config.split_threshold;
        let matcher = Matcher::with_config(&data, config);
        let got = sorted_rows(matcher.find_all(&query).unwrap());
        assert_eq!(got, expected, "split_threshold={threshold}");

        let sink = FirstKSink::new(K as usize);
        let stats = matcher.run(&query, &sink).unwrap();
        assert_eq!(sink.into_results().len(), K as usize);
        assert_eq!(stats.metrics.split_expansions > 0, threshold > 0);
        assert!(
            stats.metrics.materialized <= K + 2 * ABORT_PROBE,
            "split_threshold={threshold}: {} embeddings materialized past a limit of {K}",
            stats.metrics.materialized,
        );
    }
}

/// The same on the resident pool.
#[test]
fn giant_expansion_served_matches_sequential_and_stops_within_a_probe_window() {
    let data = Arc::new(hub_star(GIANT));
    let query = two_path_query();
    let expected = sequential_sorted(&data, &query);
    for match_config in giant_configs() {
        let threshold = match_config.split_threshold;
        let server = MatchServer::new(
            Arc::clone(&data),
            ServeConfig {
                threads: 2,
                match_config,
                ..ServeConfig::default()
            },
        );
        let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
        assert_eq!(outcome.status, QueryStatus::Completed);
        let got = sorted_rows(outcome.embeddings.expect("collected"));
        assert_eq!(got, expected, "split_threshold={threshold}");

        let outcome = server.run(&query, QueryOptions::first(K)).unwrap();
        assert_eq!(outcome.status, QueryStatus::LimitReached);
        assert_eq!(outcome.count, K);
        assert!(
            outcome.metrics.materialized <= K + 2 * ABORT_PROBE,
            "split_threshold={threshold}: {} embeddings materialized past a limit of {K}",
            outcome.metrics.materialized,
        );
        let stats = server.stats();
        assert_eq!(stats.splits > 0, threshold > 0);
        assert_eq!(stats.tasks_spawned, stats.tasks_executed);
        server.shutdown();
    }
}
