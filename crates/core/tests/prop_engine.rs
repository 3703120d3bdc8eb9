//! Property-based tests of the matching engine: structural invariants of
//! returned embeddings and first-k sizes on arbitrary instances. Executor
//! agreement is the swarm's (`swarm.rs`).

use hgmatch_core::exec::SequentialExecutor;
use hgmatch_core::{CollectSink, MatchConfig, Planner, QueryGraph};
use hgmatch_datasets::testgen::{random_hypergraph, random_subquery};
use hgmatch_hypergraph::EdgeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn embeddings_are_structurally_valid(
        seed in 0u64..1 << 48,
        nv in 2usize..16,
        ne in 1usize..24,
        k in 2usize..4,
    ) {
        let data = random_hypergraph(seed, nv, ne, 2, 3);
        let Some(query) = random_subquery(&data, seed ^ 0xA5A5, k) else {
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
        seed in 0u64..1 << 48,
        nv in 2usize..14,
        ne in 1usize..20,
        edges in 1usize..3,
        k in 1usize..5,
    ) {
        let data = random_hypergraph(seed, nv, ne, 2, 3);
        let Some(query) = random_subquery(&data, seed ^ 0xA5A5, edges) else {
            return Ok(());
        };
        let matcher = hgmatch_core::Matcher::new(&data);
        let total = matcher.count(&query).unwrap() as usize;
        let first = matcher.find_first(&query, k).unwrap();
        prop_assert_eq!(first.len(), k.min(total));
    }
}
