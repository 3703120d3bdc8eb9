//! Property-based tests of the matching engine: executor agreement and
//! structural invariants of returned embeddings on arbitrary instances.

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::exec::{BfsExecutor, SequentialExecutor};
use hgmatch_core::{CollectSink, CountSink, MatchConfig, Planner, QueryGraph};
use hgmatch_hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, Label};
use proptest::prelude::*;

/// Strategy: a small labelled hypergraph.
fn hypergraph_strategy(
    max_vertices: usize,
    max_edges: usize,
    labels: u32,
) -> impl Strategy<Value = Hypergraph> {
    (2usize..max_vertices).prop_flat_map(move |nv| {
        let label_vec = proptest::collection::vec(0u32..labels, nv);
        let edges = proptest::collection::vec(
            proptest::collection::btree_set(0u32..nv as u32, 1..4usize.min(nv)),
            1..max_edges,
        );
        (label_vec, edges).prop_map(|(labels, edges)| {
            let mut b = HypergraphBuilder::new();
            for &l in &labels {
                b.add_vertex(Label::new(l));
            }
            for e in edges {
                let _ = b.add_edge(e.into_iter().collect()).unwrap();
            }
            b.build().unwrap()
        })
    })
}

/// Picks a connected sub-hypergraph of `data` as the query.
fn planted_query(data: &Hypergraph, picks: &[u8], k: usize) -> Option<Hypergraph> {
    use hgmatch_hypergraph::VertexId;
    if data.num_edges() == 0 {
        return None;
    }
    let mut edges = vec![picks.first().map(|&p| p as u32).unwrap_or(0) % data.num_edges() as u32];
    for &p in picks.iter().skip(1).take(k.saturating_sub(1)) {
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
            break;
        }
        edges.push(frontier[p as usize % frontier.len()]);
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn executors_agree(
        data in hypergraph_strategy(20, 30, 3),
        picks in proptest::collection::vec(0u8..255, 1..4),
    ) {
        let Some(query) = planted_query(&data, &picks, picks.len()) else {
            return Ok(());
        };
        let qg = QueryGraph::new(&query).unwrap();
        let plan = Planner::plan(&qg, &data).unwrap();

        let seq = CountSink::new();
        SequentialExecutor::run(&plan, &data, &seq, &MatchConfig::sequential());
        let bfs = CountSink::new();
        BfsExecutor::run(&plan, &data, &bfs, &MatchConfig::sequential());
        let par = CountSink::new();
        ParallelEngine::run(&plan, &data, &par, &MatchConfig::parallel(3));

        prop_assert!(seq.count() >= 1, "planted query must match");
        prop_assert_eq!(seq.count(), bfs.count());
        prop_assert_eq!(seq.count(), par.count());
    }

    #[test]
    fn embeddings_are_structurally_valid(
        data in hypergraph_strategy(16, 24, 2),
        picks in proptest::collection::vec(0u8..255, 2..4),
    ) {
        let Some(query) = planted_query(&data, &picks, picks.len()) else {
            return Ok(());
        };
        let qg = QueryGraph::new(&query).unwrap();
        let plan = Planner::plan(&qg, &data).unwrap();
        let sink = CollectSink::new();
        SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::sequential());

        for m in sink.into_results() {
            // Tuple length and distinctness.
            prop_assert_eq!(m.len(), query.num_edges());
            let mut ids: Vec<u32> = m.raw().to_vec();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), m.len(), "matched data edges must be distinct");
            // Signatures match per query edge, and the mapped union has
            // exactly |V(q)| distinct vertices (Observation V.5 globally).
            let mut union: Vec<u32> = Vec::new();
            for (qe, de) in m.iter().enumerate() {
                prop_assert_eq!(
                    data.edge_signature(de),
                    data.interner().get(&hgmatch_hypergraph::Signature::new(
                        query
                            .edge_vertices(EdgeId::from_index(qe))
                            .iter()
                            .map(|&u| query.label(hgmatch_hypergraph::VertexId::new(u)))
                            .collect()
                    )).unwrap()
                );
                union.extend_from_slice(data.edge_vertices(de));
            }
            union.sort_unstable();
            union.dedup();
            prop_assert_eq!(union.len(), query.num_vertices());
        }
    }

    #[test]
    fn first_k_returns_min_k_total(
        data in hypergraph_strategy(14, 20, 2),
        picks in proptest::collection::vec(0u8..255, 1..3),
        k in 1usize..5,
    ) {
        let Some(query) = planted_query(&data, &picks, picks.len()) else {
            return Ok(());
        };
        let matcher = hgmatch_core::Matcher::new(&data);
        let total = matcher.count(&query).unwrap() as usize;
        let first = matcher.find_first(&query, k).unwrap();
        prop_assert_eq!(first.len(), k.min(total));
    }
}
