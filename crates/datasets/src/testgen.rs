//! Shared random generators for cross-crate test suites.
//!
//! Several integration suites (baseline cross-checks, serving-layer tests,
//! the dynamic-update differential harness) need the same ingredients: a
//! seeded random data hypergraph, a random connected sub-query planted in
//! it, a structurally mixed query workload, and a combinatorial blow-up
//! instance for cancellation/timeout paths. They used to be copy-pasted
//! per test file; this module is the single home. Everything is
//! deterministic per seed.

use hgmatch_hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, Label, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded random hypergraph: `nv` vertices over `labels` labels, `ne`
/// edges with arities drawn uniformly from `min_arity..=max_arity`
/// (clamped to the vertex count). Repeated edges are dropped by the
/// builder, so the edge count is an upper bound on dense instances.
pub fn random_arity_hypergraph(
    seed: u64,
    nv: usize,
    ne: usize,
    labels: u32,
    min_arity: usize,
    max_arity: usize,
) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new();
    for _ in 0..nv {
        b.add_vertex(Label::new(rng.random_range(0..labels)));
    }
    for _ in 0..ne {
        let arity = rng.random_range(min_arity.min(nv)..=max_arity.min(nv));
        let mut edge: Vec<u32> = Vec::new();
        while edge.len() < arity {
            let v = rng.random_range(0..nv as u32);
            if !edge.contains(&v) {
                edge.push(v);
            }
        }
        let _ = b.add_edge(edge).expect("vertices exist");
    }
    b.build().expect("random graph builds")
}

/// [`random_arity_hypergraph`] with the historical arity floor of 1.
pub fn random_hypergraph(
    seed: u64,
    nv: usize,
    ne: usize,
    labels: u32,
    max_arity: usize,
) -> Hypergraph {
    random_arity_hypergraph(seed, nv, ne, labels, 1, max_arity)
}

/// Samples a connected `k`-edge sub-hypergraph of `data` and re-numbers it
/// into a standalone query (which therefore has at least one embedding).
/// `None` when `data` cannot supply one (too few edges, dead-end walk).
pub fn random_subquery(data: &Hypergraph, seed: u64, k: usize) -> Option<Hypergraph> {
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
            .map(|&v| vertices.binary_search(&v).expect("member vertex") as u32)
            .collect();
        b.add_edge(renumbered).expect("vertices exist");
    }
    Some(b.build().expect("subquery builds"))
}

/// A small workload of structurally different queries over a 3-label
/// space: single edges of arity 2–3, a shared-vertex pair, a mixed-arity
/// path, and one infeasible query (label 9). At least 8 queries, as the
/// concurrent serving tests require.
pub fn workload_queries() -> Vec<Hypergraph> {
    let mut queries = Vec::new();
    // Single edges of arity 2 and 3 across a few label combos.
    for labels in [
        vec![0u32, 0],
        vec![0, 1],
        vec![1, 2],
        vec![0, 1, 2],
        vec![0, 0, 1],
    ] {
        let mut b = HypergraphBuilder::new();
        for &l in &labels {
            b.add_vertex(Label::new(l));
        }
        b.add_edge((0..labels.len() as u32).collect()).unwrap();
        queries.push(b.build().unwrap());
    }
    // Two {0,1} edges sharing the 0-labelled vertex.
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 1, 1] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![0, 1]).unwrap();
    b.add_edge(vec![0, 2]).unwrap();
    queries.push(b.build().unwrap());
    // A 3-edge path mixing arities.
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2, 0] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![0, 1]).unwrap();
    b.add_edge(vec![1, 2]).unwrap();
    b.add_edge(vec![2, 3]).unwrap();
    queries.push(b.build().unwrap());
    // Infeasible: a label absent from the dataset.
    let mut b = HypergraphBuilder::new();
    b.add_vertices(2, Label::new(9));
    b.add_edge(vec![0, 1]).unwrap();
    queries.push(b.build().unwrap());
    queries
}

/// A combinatorial blow-up pair: `n` same-label vertices with every pair
/// as a data hyperedge, queried with a path of `m` {A,A} edges. Embedding
/// counts explode with `n` — what cancellation and timeout tests need.
pub fn blowup(n: u32, m: u32) -> (Hypergraph, Hypergraph) {
    let mut d = HypergraphBuilder::new();
    d.add_vertices(n as usize, Label::new(0));
    for i in 0..n {
        for j in (i + 1)..n {
            d.add_edge(vec![i, j]).unwrap();
        }
    }
    let mut q = HypergraphBuilder::new();
    q.add_vertices(m as usize + 1, Label::new(0));
    for i in 0..m {
        q.add_edge(vec![i, i + 1]).unwrap();
    }
    (d.build().unwrap(), q.build().unwrap())
}

/// A hub the cost model underestimates: two {C,A} rows, one of whose A
/// vertices carries `fan` {A,B} edges while 1000 other A vertices carry
/// one each, so the degree statistics put an {A,B} expansion at ≈ 20
/// candidates and, at `fan` = 100, the plan at ≈ 65 — under the serving
/// layer's caller-first gate — while the hub's own expansion yields
/// `fan`. Every hub B continues into one {B,D} edge, so the {C,A}–{A,B}–
/// {B,D} path query has exactly `fan` embeddings and runs ≈ `fan` + 3
/// tasks.
pub fn hub(fan: u32) -> (Hypergraph, Hypergraph) {
    const LEAVES: u32 = 1000;
    let mut d = HypergraphBuilder::new();
    let c = d.add_vertices(2, Label::new(2)).raw();
    let a = d.add_vertices(LEAVES as usize + 1, Label::new(0)).raw();
    let b = d.add_vertices((fan + LEAVES) as usize, Label::new(1)).raw();
    let dd = d.add_vertices(fan as usize, Label::new(3)).raw();
    d.add_edge(vec![c, a]).unwrap(); // the hub's {C,A}
    d.add_edge(vec![c + 1, a + 1]).unwrap(); // a leaf's {C,A}
    for i in 0..fan {
        d.add_edge(vec![a, b + i]).unwrap(); // hub fan-out
        d.add_edge(vec![b + i, dd + i]).unwrap(); // {B,D} under the hub
    }
    for i in 0..LEAVES {
        d.add_edge(vec![a + 1 + i, b + fan + i]).unwrap();
    }
    let mut q = HypergraphBuilder::new();
    for &l in &[2u32, 0, 1, 3] {
        q.add_vertex(Label::new(l));
    }
    q.add_edge(vec![0, 1]).unwrap(); // {C,A}
    q.add_edge(vec![1, 2]).unwrap(); // {A,B}
    q.add_edge(vec![2, 3]).unwrap(); // {B,D}
    (d.build().unwrap(), q.build().unwrap())
}

/// The paper's Fig. 1b data hypergraph (labels A=0, B=1, C=2).
pub fn paper_data() -> Hypergraph {
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

/// The paper's Fig. 1a query hypergraph (two embeddings in [`paper_data`]).
pub fn paper_query() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 2, 0, 0, 1] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![2, 4]).unwrap();
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![0, 1, 3, 4]).unwrap();
    b.build().unwrap()
}

/// The rebuild-from-scratch oracle of the dynamic-update differential
/// suites: a fresh offline build over `graph`'s vertices and edges in
/// order. A dynamic snapshot is correct iff it equals this.
pub fn rebuild_oracle(graph: &Hypergraph) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in graph.labels() {
        b.add_vertex(l);
    }
    for (_, vs) in graph.iter_edges() {
        b.add_edge(vs.to_vec())
            .expect("edges of a built graph are valid");
    }
    b.build().expect("rebuild")
}

/// Asserts that the lazily derived state of `got` — incidence lists,
/// degrees, adjacency counts — equals `want`'s, vertex by vertex.
/// `Hypergraph: PartialEq` leaves that state out (it is a function of the
/// compared content), so the snapshot-vs-rebuild and save-vs-load
/// differentials check it through this.
pub fn assert_derived_state_eq(got: &Hypergraph, want: &Hypergraph) {
    assert_eq!(got.num_vertices(), want.num_vertices());
    for v in (0..want.num_vertices()).map(VertexId::from_index) {
        assert_eq!(got.incident_edges(v), want.incident_edges(v), "he({v:?})");
        assert_eq!(got.degree(v), want.degree(v), "d({v:?})");
        assert_eq!(got.adjacent_count(v), want.adjacent_count(v), "adj({v:?})");
    }
}

/// Deterministic splitmix64 stream for deriving op sequences and random
/// orders from a test-chosen seed — the shared RNG of the differential
/// suites (`prop_dynamic`, `prop_stats`, `prop_orders`), which want
/// reproducibility from a single `u64` without threading a full RNG
/// through.
pub struct TestRng(pub u64);

impl TestRng {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_hypergraph_is_deterministic_and_shaped() {
        let a = random_arity_hypergraph(9, 30, 60, 3, 2, 4);
        let b = random_arity_hypergraph(9, 30, 60, 3, 2, 4);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.num_edges() > 0 && a.num_edges() <= 60);
        assert!(a.max_arity() <= 4);
        for (_, vs) in a.iter_edges() {
            assert!(vs.len() >= 2);
        }
    }

    #[test]
    fn subqueries_are_planted() {
        let data = random_hypergraph(4, 12, 20, 2, 3);
        let q = random_subquery(&data, 11, 2).expect("sample");
        assert_eq!(q.num_edges(), 2);
        // Planted: the (renumbered) sub-hypergraph exists in the data, so
        // every edge signature must occur.
        for (_, vs) in q.iter_edges() {
            let sig = hgmatch_hypergraph::Signature::new(
                vs.iter().map(|&v| q.label(VertexId::new(v))).collect(),
            );
            assert!(data.cardinality(&sig) > 0);
        }
    }

    #[test]
    fn workload_has_enough_queries() {
        let queries = workload_queries();
        assert!(queries.len() >= 8);
    }

    #[test]
    fn blowup_shapes() {
        let (d, q) = blowup(6, 3);
        assert_eq!(d.num_edges(), 15);
        assert_eq!(q.num_edges(), 3);
    }
}
