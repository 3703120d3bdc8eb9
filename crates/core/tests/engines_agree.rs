//! Cross-executor integration tests: the sequential DFS executor, the BFS
//! executor and the parallel task engine must agree on every query, and
//! planted (random-walk) queries must always be found.

use std::time::Duration;

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::exec::{BfsExecutor, SequentialExecutor};
use hgmatch_core::{CollectSink, CountSink, MatchConfig, Matcher, Planner, QueryGraph};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic random hypergraph without pulling in the datasets crate.
fn random_hypergraph(seed: u64, nv: usize, ne: usize, labels: u32, max_arity: usize) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new();
    for _ in 0..nv {
        b.add_vertex(Label::new(rng.random_range(0..labels)));
    }
    for _ in 0..ne {
        let arity = rng.random_range(1..=max_arity.min(nv));
        let mut edge: Vec<u32> = Vec::new();
        while edge.len() < arity {
            let v = rng.random_range(0..nv as u32);
            if !edge.contains(&v) {
                edge.push(v);
            }
        }
        let _ = b.add_edge(edge).unwrap();
    }
    b.build().unwrap()
}

/// Random-walk query with `k` edges (planted: must have ≥ 1 embedding).
fn random_walk_query(data: &Hypergraph, seed: u64, k: usize) -> Option<Hypergraph> {
    use hgmatch_hypergraph::{EdgeId, VertexId};
    let mut rng = StdRng::seed_from_u64(seed);
    if data.num_edges() < k {
        return None;
    }
    let mut edges = vec![rng.random_range(0..data.num_edges() as u32)];
    for _ in 1..k {
        let mut frontier: Vec<u32> = Vec::new();
        for &e in &edges {
            for &v in data.edge_vertices(EdgeId::new(e)) {
                frontier.extend_from_slice(data.incident_edges(VertexId::new(v)));
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        frontier.retain(|e| !edges.contains(e));
        if frontier.is_empty() {
            return None;
        }
        edges.push(frontier[rng.random_range(0..frontier.len())]);
    }
    // Extract into a standalone query hypergraph.
    let mut vertices: Vec<u32> = edges
        .iter()
        .flat_map(|&e| data.edge_vertices(EdgeId::new(e)))
        .copied()
        .collect();
    vertices.sort_unstable();
    vertices.dedup();
    let mut b = HypergraphBuilder::new();
    for &v in &vertices {
        b.add_vertex(data.label(VertexId::new(v)));
    }
    for &e in &edges {
        let renumbered: Vec<u32> = data
            .edge_vertices(EdgeId::new(e))
            .iter()
            .map(|&v| vertices.binary_search(&v).unwrap() as u32)
            .collect();
        b.add_edge(renumbered).unwrap();
    }
    Some(b.build().unwrap())
}

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
fn executors_agree_on_random_instances() {
    for seed in 0..12u64 {
        let data = random_hypergraph(seed, 30, 60, 3, 4);
        for k in [1usize, 2, 3] {
            let Some(query) = random_walk_query(&data, seed * 31 + k as u64, k) else {
                continue;
            };
            let results = count_all_executors(&data, &query);
            let reference = results[0].1;
            assert!(
                reference >= 1,
                "planted query must be found (seed {seed}, k {k})"
            );
            for (name, count) in &results {
                assert_eq!(
                    *count, reference,
                    "{name} disagrees on seed {seed}, k {k}: {count} vs {reference}"
                );
            }
        }
    }
}

#[test]
fn executors_agree_on_skewed_labels() {
    // Single-label data maximises automorphism pressure on validation.
    for seed in 0..6u64 {
        let data = random_hypergraph(seed + 100, 20, 40, 1, 3);
        for k in [2usize, 3, 4] {
            let Some(query) = random_walk_query(&data, seed * 17 + k as u64, k) else {
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
fn collect_results_identical_across_executors() {
    let data = random_hypergraph(7, 25, 50, 2, 4);
    let query = random_walk_query(&data, 3, 3).expect("query");
    let qg = QueryGraph::new(&query).unwrap();
    let plan = Planner::plan(&qg, &data).unwrap();

    let seq = CollectSink::new();
    SequentialExecutor::run(&plan, &data, &seq, &MatchConfig::sequential());
    let par = CollectSink::new();
    ParallelEngine::run(&plan, &data, &par, &MatchConfig::parallel(4));
    let bfs = CollectSink::new();
    BfsExecutor::run(&plan, &data, &bfs, &MatchConfig::parallel(2));

    let seq = seq.into_results();
    assert_eq!(seq, par.into_results(), "parallel engine embeddings differ");
    assert_eq!(seq, bfs.into_results(), "bfs embeddings differ");
    assert!(!seq.is_empty());
}

#[test]
fn matching_order_does_not_change_counts() {
    let data = random_hypergraph(42, 24, 48, 2, 4);
    let query = random_walk_query(&data, 9, 3).expect("query");
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
    if let Some(query) = random_walk_query(&data, 2, 4) {
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
    let query = random_walk_query(&data, 4, 2).expect("query");
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
