//! Tests pinning the paper's worked examples and stated guarantees:
//! Example III.1 (the two embeddings), Example V.1 (candidate generation),
//! Example V.2 / Fig. 4 (profile validation rejects), Fig. 5 (dataflow
//! shape), and Theorem VI.1 (memory bound).

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::{CountSink, MatchConfig, Matcher, Planner, QueryGraph};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};

fn paper_data() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![2, 4]).unwrap();
    b.add_edge(vec![4, 6]).unwrap();
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![3, 5, 6]).unwrap();
    b.add_edge(vec![0, 1, 4, 6]).unwrap();
    b.add_edge(vec![2, 3, 4, 5]).unwrap();
    b.build().unwrap()
}

fn paper_query() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 2, 0, 0, 1] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![2, 4]).unwrap();
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![0, 1, 3, 4]).unwrap();
    b.build().unwrap()
}

/// Example III.1: exactly the embeddings (e1,e3,e5) and (e2,e4,e6) —
/// 0-indexed (e0,e2,e4), (e1,e3,e5) — and the partial query {u2,u4} has
/// partial embeddings (e1) and (e2) → our (e0), (e1).
#[test]
fn example_iii_1() {
    let data = paper_data();
    let full = Matcher::new(&data).find_all(&paper_query()).unwrap();
    let raw: Vec<&[u32]> = full.iter().map(|m| m.raw()).collect();
    assert_eq!(raw, vec![&[0u32, 2, 4][..], &[1u32, 3, 5][..]]);

    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(0));
    b.add_vertex(Label::new(1));
    b.add_edge(vec![0, 1]).unwrap();
    let partial = b.build().unwrap();
    let partial_embeddings = Matcher::new(&data).find_all(&partial).unwrap();
    let raw: Vec<&[u32]> = partial_embeddings.iter().map(|m| m.raw()).collect();
    assert_eq!(raw, vec![&[0u32][..], &[1u32][..]]);
}

/// Fig. 5a: the dataflow for the paper's plan is SCAN → EXPAND → EXPAND →
/// SINK — one plan step per query edge, the first scanned, the rest
/// expanded — over the cardinality-2 partitions.
#[test]
fn fig5_dataflow_shape() {
    let data = paper_data();
    let query = QueryGraph::new(&paper_query()).unwrap();
    let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
    let steps = plan.steps();
    assert_eq!(steps.len(), 3);
    let edges: Vec<u32> = steps.iter().map(|s| s.query_edge).collect();
    assert_eq!(edges, vec![0, 1, 2]);
    for step in steps {
        let partition = step.partition.expect("every signature occurs in the data");
        assert_eq!(data.partition(partition).len(), 2);
    }
}

/// Theorem VI.1: the engine's accounted intermediate-result memory stays
/// within O(aq · |E(q)|² · |E(H)|) — checked with an explicit constant.
#[test]
fn theorem_vi_1_memory_bound() {
    // A denser instance than Fig. 1 so the bound is non-trivial.
    let mut b = HypergraphBuilder::new();
    b.add_vertices(30, Label::new(0));
    for i in 0..30u32 {
        for j in (i + 1)..30 {
            if (i + j) % 3 != 0 {
                b.add_edge(vec![i, j]).unwrap();
            }
        }
    }
    let data = b.build().unwrap();

    let mut b = HypergraphBuilder::new();
    b.add_vertices(4, Label::new(0));
    b.add_edge(vec![0, 1]).unwrap();
    b.add_edge(vec![1, 2]).unwrap();
    b.add_edge(vec![2, 3]).unwrap();
    let query = b.build().unwrap();

    let qg = QueryGraph::new(&query).unwrap();
    let plan = Planner::plan(&qg, &data).unwrap();
    let sink = CountSink::new();
    let stats = ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(2));
    assert!(sink.count() > 0);

    let aq = qg.average_arity().ceil() as i64;
    let eq = query.num_edges() as i64;
    let eh = data.num_edges() as i64;
    // 48 bytes/task is generous for ids + boxed-slice + queue overhead.
    let bound = aq * eq * eq * eh * 48;
    assert!(
        stats.peak_memory_bytes <= bound,
        "peak {} exceeds Theorem VI.1 bound {}",
        stats.peak_memory_bytes,
        bound
    );
}

/// §IV-B size analysis: table + index storage is O(a_H · |E(H)|) — the
/// byte count divided by total incidences must be a small constant.
#[test]
fn storage_size_analysis() {
    let data = paper_data();
    let incidences: usize = data.iter_edges().map(|(_, vs)| vs.len()).sum();
    let per_incidence =
        (data.table_size_bytes() + data.index_size_bytes()) as f64 / incidences as f64;
    // Tables store 4 bytes/incidence + 4/edge; the index ≤ 12/incidence
    // (posting + key + offset). Anything under 32 B/incidence is "linear
    // with a small constant".
    assert!(per_incidence < 32.0, "{per_incidence} bytes per incidence");
}

/// The matching-order planner prefers the smallest-cardinality hyperedge
/// first and then maximises overlap — Algorithm 3's tie-breaking on the
/// paper example (all cardinalities are 2, so index order wins, and every
/// later edge connects).
#[test]
fn algorithm3_order_on_paper_example() {
    let data = paper_data();
    let query = QueryGraph::new(&paper_query()).unwrap();
    // The paper's greedy Algorithm 3: all cardinalities are 2, so the
    // tie-break starts at edge 0.
    let greedy = Planner::plan_greedy(&query, &data).unwrap();
    assert_eq!(greedy.order()[0], 0);
    // Both the greedy and the cost-based default produce connected orders.
    for plan in [greedy, Planner::plan(&query, &data).unwrap()] {
        for (i, step) in plan.steps().iter().enumerate().skip(1) {
            assert!(
                !step.anchors.is_empty(),
                "step {i} must connect to the partial query (connected order)"
            );
        }
    }
}

/// Engines treat queries that are *larger* than the data gracefully.
#[test]
fn query_larger_than_data() {
    let data = paper_data();
    let mut b = HypergraphBuilder::new();
    b.add_vertices(12, Label::new(0));
    for i in 0..11u32 {
        b.add_edge(vec![i, i + 1]).unwrap();
    }
    let query = b.build().unwrap();
    assert_eq!(Matcher::new(&data).count(&query).unwrap(), 0);
}

/// Identical query and data: at least the identity embedding is found, and
/// every matched tuple is a permutation-free assignment.
#[test]
fn self_match_finds_identity() {
    let data = paper_data();
    let embeddings = Matcher::new(&data).find_all(&data.clone()).unwrap();
    assert!(embeddings
        .iter()
        .any(|m| m.raw() == (0..data.num_edges() as u32).collect::<Vec<_>>()));
}

/// Arity-1 hyperedges (singleton sets) flow through every stage.
#[test]
fn singleton_hyperedges_match() {
    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(0));
    b.add_vertex(Label::new(0));
    b.add_vertex(Label::new(1));
    b.add_edge(vec![0]).unwrap();
    b.add_edge(vec![1]).unwrap();
    b.add_edge(vec![0, 2]).unwrap();
    let data = b.build().unwrap();

    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(0));
    b.add_vertex(Label::new(1));
    b.add_edge(vec![0]).unwrap();
    b.add_edge(vec![0, 1]).unwrap();
    let query = b.build().unwrap();

    // {A} singleton attached to an {A,B} edge: only v0 has both.
    assert_eq!(Matcher::new(&data).count(&query).unwrap(), 1);
}
